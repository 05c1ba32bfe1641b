//! The allocation totals on `solve_summary` cover the same window for both
//! strategies: the whole run, partitioning and assembly (on the host for RDD,
//! on the ranks for EDD) included. The assembly itself allocates little more
//! than the matrix it returns, and an EDD rank that assembled its own system
//! goes into the Krylov loop holding one matrix, not an unscaled and a scaled
//! copy (the `setup_live_bytes` / `setup_peak_bytes` rank counters). Once
//! warm, a distributed Krylov loop allocates nothing on any rank — its
//! neighbour exchanges and all-reduces included.
//!
//! Runs under a counting allocator, so this binary holds nothing else.

mod common;

use common::node_strips;
use parfem_dd::scaling::DistributedScaling;
use parfem_dd::{EddLayout, EddOperator, EddVariant, RddOperator, RddSystem};
use parfem_dd::{PrecondSpec, Problem, SolveSession, Strategy};
use parfem_fem::{assembly, Discretization, Material, NewmarkParams, Physics, SubdomainSystem};
use parfem_krylov::gmres::GmresConfig;
use parfem_krylov::{fgmres_on, KrylovWorkspace};
use parfem_mesh::{DofMap, Edge, ElementPartition, Face, HexMesh, QuadMesh};
use parfem_msg::{run_ranks, Communicator, MachineModel};
use parfem_precond::GlsPrecond;
use parfem_sparse::ldlt::{SparseLdlt, DEFAULT_PIVOT_TOL};
use parfem_sparse::scaling::scale_system;
use parfem_sparse::{CsrMatrix, NodeMatrix};
use parfem_trace::alloc::{self, CountingAlloc};
use parfem_trace::{TraceReport, TraceSink};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes of the value and column arrays of `a` — a lower bound on what
/// building it allocates.
fn csr_bytes(a: &CsrMatrix) -> u64 {
    (a.nnz() * (size_of::<f64>() + size_of::<usize>())) as u64
}

/// Bytes a subdomain matrix of this pattern would take as CSR:
/// `16·nnz + 8·(n + 1)`.
fn subdomain_csr_bytes(a: &NodeMatrix) -> u64 {
    (a.nnz() * (size_of::<f64>() + size_of::<usize>()) + (a.n_rows() + 1) * size_of::<usize>())
        as u64
}

/// Bytes of the node blocks an elasticity subdomain is assembled into.
fn block_bytes(a: &NodeMatrix) -> u64 {
    a.as_blocks()
        .expect("elasticity subdomains are node blocks")
        .bytes() as u64
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

    // EDD: the ranks assemble their systems inside the window, so the
    // summary covers at least what the same assembly allocates outside it.
    let part = ElementPartition::strips_x(&mesh, 3);
    let subdomains = part.subdomains_of(&mesh);
    let (_, assembly) = alloc::measure(|| {
        (subdomains.iter())
            .map(|s| SubdomainSystem::build(&mesh, &dm, &mat, s, &loads, false))
            .collect::<Vec<_>>()
    });
    let assembled = summary_alloc_bytes(SolveSession::new(problem).strategy(Strategy::Edd(part)));
    assert!(
        assembled >= assembly.bytes,
        "EDD summary misses the assembly: {assembled} B, the assembly alone is {} B",
        assembly.bytes
    );

    // RDD: the window has always covered the global matrix.
    let global = assembly::build_static(&mesh, &dm, &mat, &loads);
    let rdd = summary_alloc_bytes(
        SolveSession::new(problem).strategy(Strategy::Rdd(node_strips(&mesh, 3))),
    );
    assert!(rdd >= csr_bytes(&global.stiffness));
}

/// The pattern-first assembly holds no transient larger than its result:
/// building one rank's share of the `elas3d-edd-twolevel` workload (an
/// x-slab half of the 28×14×14 hex cantilever) allocates at most three times
/// the bytes of the node blocks it returns, and less than the CSR arrays the
/// same pattern would take. The triplet path it replaced allocated more than
/// ten times as much as those.
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
    let (sys, allocated) = alloc::measure(|| {
        SubdomainSystem::build(&mesh, &dm, &Material::unit(), sub, &loads, false)
    });
    let (blocks, csr) = (block_bytes(&sys.k_local), subdomain_csr_bytes(&sys.k_local));
    eprintln!(
        "hex half block: {} B allocated, node blocks {blocks} B ({:.2} x), CSR arrays {csr} B",
        allocated.bytes,
        allocated.bytes as f64 / blocks as f64
    );
    assert!(
        allocated.bytes <= 3 * blocks,
        "assembly allocated {} B for a {blocks} B matrix",
        allocated.bytes
    );
    assert!(
        allocated.bytes < csr,
        "assembly allocated {} B",
        allocated.bytes
    );
}

/// The `setup_live_bytes` and `setup_peak_bytes` counters of every rank of a
/// traced run of `session`, and the run's iteration count.
fn setup_memory(session: SolveSession<'_>) -> (Vec<(u64, u64)>, usize) {
    let sink = TraceSink::recording();
    let out = session.trace(&sink).run().expect("fault-free solve");
    assert!(out.history.converged());
    (rank_setup_bytes(&sink), out.history.iterations())
}

/// The `setup_live_bytes` and `setup_peak_bytes` counters of every rank the
/// trace in `sink` holds.
fn rank_setup_bytes(sink: &TraceSink) -> Vec<(u64, u64)> {
    let report = TraceReport::from_events(&sink.take_events());
    let counter = |rank: &parfem_trace::RankSummary, name: &str| -> u64 {
        let found = rank.counters.iter().find(|(n, _)| n == name);
        found.unwrap_or_else(|| panic!("no {name} counter")).1
    };
    (report.ranks.iter())
        .map(|r| {
            (
                counter(r, "setup_live_bytes"),
                counter(r, "setup_peak_bytes"),
            )
        })
        .collect()
}

/// After its setup under `gls:7` a rank of the `elas2d-edd-gls7` shape holds
/// the block matrix and vectors, nothing matrix-sized besides: the unscaled
/// stiffness it assembled is gone and no scaled CSR copy was ever made.
#[test]
fn edd_rank_holds_one_matrix_after_a_polynomial_setup() {
    assert!(alloc::is_counting(), "counting allocator not installed");
    let mesh = QuadMesh::cantilever(100, 100);
    let mut dm = DofMap::new(mesh.n_nodes());
    dm.clamp_edge(&mesh, Edge::Left);
    let mat = Material::unit();
    let mut loads = vec![0.0; dm.n_dofs()];
    assembly::edge_load(&mesh, &dm, Edge::Right, 0.0, -1.0, &mut loads);
    let part = ElementPartition::strips_x(&mesh, 2);

    // The ranks' matrices, rebuilt here to size them: (block matrix, the
    // CSR arrays of its pattern, a dozen n-vectors — f̂, D̂ f̂, d, 1/mult,
    // multiplicity, global dofs, the node list, the row lists and the
    // exchange lists).
    let sized: Vec<(u64, u64, u64)> = (part.subdomains_of(&mesh).iter())
        .map(|s| SubdomainSystem::build(&mesh, &dm, &mat, s, &loads, false).k_local)
        .map(|k| {
            let vectors = 12 * (k.n_rows() * size_of::<f64>()) as u64;
            (block_bytes(&k), subdomain_csr_bytes(&k), vectors)
        })
        .collect();

    let session = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
        .strategy(Strategy::Edd(part))
        .precond(PrecondSpec::parse("gls:7").unwrap());
    let (memory, _) = setup_memory(session);
    for ((live, peak), (blocks, csr, vectors)) in memory.iter().zip(&sized) {
        eprintln!(
            "rank after gls:7 setup: live {live} B, peak {peak} B; block matrix {blocks} B \
             ({:.2} x its CSR source of {csr} B), vectors <= {vectors} B",
            *blocks as f64 / *csr as f64
        );
        assert!(
            *live as f64 <= 1.25 * (blocks + vectors) as f64,
            "rank holds {live} B after setup; block matrix {blocks} B + vectors {vectors} B"
        );
        // Two CSR copies side by side — what the rank held before the block
        // operator — would not fit under the bound.
        assert!(2 * csr > (1.25 * (blocks + vectors) as f64) as u64);
        assert!(*peak >= *live);
    }
}

/// After its setup under `direct` a rank of the `elas3d-rdd-direct` shape
/// (the 18×9×9 hex cantilever pulled along `x`, two node slabs) holds its
/// block row — the owned columns in 3×3 node blocks, the ghost columns in
/// CSR — the LDLᵀ factor of the blocks and a dozen vectors, nothing
/// matrix-sized besides: no CSR copy of its owned rows survives assembly.
/// The parent commit's ranks, whose owned rows were CSR (with the capacity
/// of the ghost rows they had dropped), held more than the bound.
#[test]
fn rdd_direct_rank_holds_its_blocks_and_factor_after_setup() {
    assert!(alloc::is_counting(), "counting allocator not installed");
    // `setup_live_bytes` and `setup_peak_bytes` per rank at the parent
    // commit, whose ranks kept their owned rows in CSR.
    const PARENT: [(u64, u64); 2] = [(7_814_641, 7_894_080), (7_455_905, 7_531_744)];
    let mesh = HexMesh::cantilever(18, 9, 9);
    let mut dm = DofMap::with_dofs(mesh.n_nodes(), 3);
    for node in mesh.face_nodes(Face::XMin) {
        dm.clamp_node(node);
    }
    let mat = Material::unit();
    let mut loads = vec![0.0; dm.n_dofs()];
    assembly::face_load(&mesh, &dm, Face::XMax, [1.0, 0.0, 0.0], &mut loads);
    let part = node_strips(&mesh, 2);

    // The ranks' rows, cut here from the global system to size them: (the
    // block row as held, the same with the owned columns in CSR, the factor,
    // a dozen n-vectors — b, d, the row list, the halo lists and the
    // preconditioner's scratch).
    let global = assembly::build_static(&mesh, &dm, &mat, &loads);
    let (a, b, _) = scale_system(&global.stiffness, &global.rhs).expect("square system");
    let sized: Vec<(u64, u64, u64, u64)> = (RddSystem::build_all(&a, &b, &part).iter())
        .map(|sys| {
            let ext = csr_bytes(&sys.a_ext) + ((sys.n_local() + 1) * size_of::<usize>()) as u64;
            let factor = SparseLdlt::factor(&sys.a_loc, DEFAULT_PIVOT_TOL).bytes() as u64;
            let vectors = 12 * (sys.n_local() * size_of::<f64>()) as u64;
            let (blocks, csr) = (block_bytes(&sys.a_loc), subdomain_csr_bytes(&sys.a_loc));
            (blocks + ext, csr + ext, factor, vectors)
        })
        .collect();
    drop((global, a, b));

    let session = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
        .strategy(Strategy::Rdd(part))
        .precond(PrecondSpec::parse("direct").unwrap());
    let (memory, _) = setup_memory(session);
    for (((live, peak), (rows, csr, factor, vectors)), parent) in
        memory.iter().zip(&sized).zip(PARENT)
    {
        eprintln!(
            "rdd direct rank: live {live} B, peak {peak} B (parent {parent:?}); block row \
             {rows} B ({csr} B with CSR owned columns), factor {factor} B, vectors {vectors} B"
        );
        let bound = 1.25 * (rows + factor + vectors) as f64;
        assert!(
            *live as f64 <= bound,
            "rank holds {live} B after setup; rows {rows} B + factor {factor} B + vectors \
             {vectors} B"
        );
        // The parent's ranks, holding their rows in CSR, did not meet it.
        assert!(parent.0 as f64 > bound);
        // Less than the factor and the rows with their owned columns in CSR:
        // no CSR copy of the owned rows is alive, beside the blocks or
        // instead of them.
        assert!(*live < csr + factor, "rank holds {live} B after setup");
        assert!(*live <= *peak && *peak < parent.0);
    }
}

/// The 2-D cantilever `nx × ny`, clamped on the left and pulled down on the
/// right.
fn cantilever(nx: usize, ny: usize) -> (QuadMesh, DofMap, Vec<f64>) {
    let mesh = QuadMesh::cantilever(nx, ny);
    let mut dm = DofMap::new(mesh.n_nodes());
    dm.clamp_edge(&mesh, Edge::Left);
    let mut loads = vec![0.0; dm.n_dofs()];
    assembly::edge_load(&mesh, &dm, Edge::Right, 0.0, -1.0, &mut loads);
    (mesh, dm, loads)
}

/// A transient RDD rank (the 2-D cantilever 120×40 in two node strips,
/// `gls:7`) scatters each element's lumped diagonal straight into its mass
/// vector. The parent commit's ranks assembled a mass matrix over their rows
/// and every ghost column beside the stiffness, to keep only its diagonal:
/// their setup peaked higher.
#[test]
fn rdd_transient_rank_sets_up_without_a_mass_matrix() {
    assert!(alloc::is_counting(), "counting allocator not installed");
    // `setup_live_bytes` and `setup_peak_bytes` per rank at the parent
    // commit.
    const PARENT: [(u64, u64); 2] = [(1_094_305, 3_252_996), (1_086_109, 3_219_550)];
    let ((mesh, dm, loads), mat) = (cantilever(120, 40), Material::unit());
    let sink = TraceSink::recording();
    let out = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
        .strategy(Strategy::Rdd(node_strips(&mesh, 2)))
        .precond(PrecondSpec::parse("gls:7").unwrap())
        .trace(&sink)
        .run_dynamic(NewmarkParams::average_acceleration(1.0), 1, &[])
        .expect("fault-free transient");
    assert!(out.all_converged);
    for ((live, peak), parent) in rank_setup_bytes(&sink).iter().zip(PARENT) {
        eprintln!("rdd transient rank: live {live} B, peak {peak} B (parent {parent:?})");
        assert!(*peak < parent.1 && *live <= parent.0);
    }
}

/// A transient EDD rank (the 2-D cantilever 120×40 in two element strips,
/// `gls:7`) sums each element's lumped diagonal into its mass vector and
/// adds `ᾱ·m` to its stiffness's diagonal in place. The parent commit's
/// ranks assembled a mass CSR over the whole stiffness pattern, every
/// off-diagonal entry a zero, and shifted a copy of the stiffness by it:
/// they held and peaked higher.
#[test]
fn edd_transient_rank_sets_up_without_a_mass_matrix() {
    assert!(alloc::is_counting(), "counting allocator not installed");
    // `setup_live_bytes` and `setup_peak_bytes` per rank at the parent
    // commit.
    const PARENT: [(u64, u64); 2] = [(2_614_677, 3_206_808), (2_649_173, 3_251_096)];
    let ((mesh, dm, loads), mat) = (cantilever(120, 40), Material::unit());
    let sink = TraceSink::recording();
    let out = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
        .strategy(Strategy::Edd(ElementPartition::strips_x(&mesh, 2)))
        .precond(PrecondSpec::parse("gls:7").unwrap())
        .trace(&sink)
        .run_dynamic(NewmarkParams::average_acceleration(1.0), 1, &[])
        .expect("fault-free transient");
    assert!(out.all_converged);
    for ((live, peak), parent) in rank_setup_bytes(&sink).iter().zip(PARENT) {
        eprintln!("edd transient rank: live {live} B, peak {peak} B (parent {parent:?})");
        assert!(*live < parent.0 && *peak < parent.1);
    }
}

/// The session strategy `name` ("EDD" element strips, "RDD" node strips) on
/// `p` ranks.
fn strips(name: &str, mesh: &QuadMesh, p: usize) -> Strategy {
    match name {
        "EDD" => Strategy::Edd(ElementPartition::strips_x(mesh, p)),
        _ => Strategy::Rdd(node_strips(mesh, p)),
    }
}

/// Per rank, the allocation calls of `run(more)` beyond those of `run(1)`:
/// what `more − 1` further solves on the rank's one operator allocate. A
/// mailbox adds a payload buffer to its pool the first time its queue
/// reaches a new depth, which scheduling decides, so the counts move by a
/// few calls run to run; `close` must accept one of `ATTEMPTS` pairs of
/// runs.
fn later_solves_allocate(
    what: &str,
    more: usize,
    run: impl Fn(usize) -> Vec<u64>,
    close: impl Fn(&[u64]) -> bool,
) {
    let mut seen = Vec::new();
    let accepted = (0..ATTEMPTS).any(|_| {
        let (one, many) = (run(1), run(more));
        let later: Vec<u64> = many.iter().zip(&one).map(|(m, o)| m - o).collect();
        eprintln!(
            "{what}: {} more solves allocate {later:?} times per rank",
            more - 1
        );
        seen.push(later.clone());
        close(&later)
    });
    assert!(accepted, "{what}: {seen:?}");
}

/// The allocation calls of a 9-step transient on the 2-D cantilever 40×8
/// (`gls:7`) beyond those of a 1-step one, per rank, under EDD strips and
/// RDD node strips: what eight steps of the step loop allocate, 18 calls on
/// one rank and on each of two. Each step allocates its FGMRES solution and
/// convergence history, and the list of step histories grows twice; the
/// operator and its exchange buffers are the rank's from its setup on (the
/// parent, which built one per solve, allocated 97 and 66 times at P = 2).
#[test]
fn transient_step_loop_allocations_are_pinned() {
    assert!(alloc::is_counting(), "counting allocator not installed");
    const PINNED: u64 = 18;
    let ((mesh, dm, loads), mat) = (cantilever(40, 8), Material::unit());
    for name in ["EDD", "RDD"] {
        for p in [1, 2] {
            let allocs = |steps: usize| -> Vec<u64> {
                let out = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
                    .strategy(strips(name, &mesh, p))
                    .precond(PrecondSpec::parse("gls:7").unwrap())
                    .run_dynamic(NewmarkParams::average_acceleration(1.0), steps, &[])
                    .expect("fault-free transient");
                assert!(out.all_converged);
                out.last.reports.iter().map(|r| r.allocs.count).collect()
            };
            let pinned = |later: &[u64]| later.iter().all(|got| got.abs_diff(PINNED) <= 2);
            later_solves_allocate(&format!("{name} P = {p}"), 9, allocs, pinned);
        }
    }
}

/// Under `run_multi` (the 2-D cantilever 40×8, `gls:7`, five loads against
/// one) each further right-hand side allocates on every rank of a P = 2
/// session what it allocates on one rank, within two calls per right-hand
/// side: its restricted load, initial guess, solution and history, nothing
/// of the operator. The parent commit, which built an operator per solve,
/// allocated 56–60 calls per rank under EDD and 38–46 under RDD for the
/// four, against 18 and 22 on one rank. The message pools' buffers move
/// between the two ranks' counts from run to run (`[15, 21]` and
/// `[21, 15]` against 18 on one rank), so the two ranks together must also
/// come within two calls of twice the one rank.
#[test]
fn run_multi_allocates_per_right_hand_side_as_on_one_rank() {
    assert!(alloc::is_counting(), "counting allocator not installed");
    let ((mesh, dm, loads), mat) = (cantilever(40, 8), Material::unit());
    let rhs: Vec<Vec<f64>> = (1..=5)
        .map(|k| loads.iter().map(|f| f * k as f64).collect())
        .collect();
    let (problem, rhs, mesh) = (Problem::new(&mesh, &dm, &mat, &loads), &rhs, &mesh);
    for name in ["EDD", "RDD"] {
        let allocs = |p: usize| {
            move |n: usize| -> Vec<u64> {
                let out = SolveSession::new(problem)
                    .strategy(strips(name, mesh, p))
                    .precond(PrecondSpec::parse("gls:7").unwrap())
                    .run_multi(&rhs[..n])
                    .expect("fault-free solves");
                assert!(out.all_converged());
                out.reports.iter().map(|r| r.allocs.count).collect()
            }
        };
        let one_rank = allocs(1);
        let one = one_rank(5)[0] - one_rank(1)[0];
        eprintln!("{name} P = 1: 4 more solves allocate {one} times");
        let close = |later: &[u64]| {
            let per_rhs = later.iter().all(|got| got.abs_diff(one) <= 2 * 4);
            per_rhs && later.iter().sum::<u64>().abs_diff(2 * one) <= 2
        };
        later_solves_allocate(&format!("{name} P = 2"), 5, allocs(2), close);
    }
}

/// `setup_memory` of the `elas3d-edd-twolevel`-shaped session: the 28×14×14
/// hex cantilever, clamped at `x = 0` and pulled down at the far face, in
/// two EDD blocks under `twolevel:rbm.s3:gls-3`.
fn hex_twolevel_setup_memory() -> Vec<(u64, u64)> {
    let mesh = HexMesh::cantilever(28, 14, 14);
    let mut dm = DofMap::with_dofs(mesh.n_nodes(), 3);
    for node in mesh.face_nodes(Face::XMin) {
        dm.clamp_node(node);
    }
    let mat = Material::unit();
    let mut loads = vec![0.0; dm.n_dofs()];
    assembly::face_load(&mesh, &dm, Face::XMax, [0.0, 0.0, -1.0], &mut loads);
    let session = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
        .strategy(Strategy::Edd(ElementPartition::blocks_of(&mesh, 2, 1)))
        .precond(PrecondSpec::parse("twolevel:rbm.s3:gls-3").unwrap());
    setup_memory(session).0
}

/// The two-level setup reads matrix rows, so it does see a scaled CSR — the
/// rank's own stiffness scaled in place, next to the block operator, where
/// there used to be the stiffness and a scaled CSR clone. The peak over
/// assembly, scaling and the coarse build of one `elas3d-edd-twolevel`-shaped
/// rank stays below what the CSR-clone setup reached.
#[test]
fn hex_twolevel_setup_peak_is_no_higher_than_with_two_csr_copies() {
    assert!(alloc::is_counting(), "counting allocator not installed");
    // Per-rank peaks at the parent commit (same mesh and spec, these
    // counters patched in), reached with `K̂` and its scaled clone live.
    const PARENT_PEAK: [u64; 2] = [32_239_928, 33_911_616];
    for ((live, peak), parent) in hex_twolevel_setup_memory().into_iter().zip(PARENT_PEAK) {
        eprintln!("hex two-level rank: live {live} B after setup, peak {peak} B ({parent} B)");
        assert!(
            peak <= parent,
            "setup peaked at {peak} B, the two-CSR setup at {parent} B"
        );
    }
}

/// A rank's two-level setup peaks inside the coarse build, where the
/// dense-support modes and their staged products are the columns of one
/// panel. The runtime coarse solver then takes the built mode set as it
/// stands: no triplet list is filled from it. Each rank of the
/// `elas3d-edd-twolevel` shape therefore peaks below the mode-by-mode build
/// (whose lists grew by doubling and whose stable sorts took a buffer of
/// their own) and below the pin taken with the block coarse build (whose
/// solver copied the modes into two sorted triplet lists) — pinned at the
/// new peak, and re-pinned lower once the rank matrix kept only its upper
/// block triangle (10 428 000 / 10 813 000 B with both triangles). After
/// setup a rank holds less than it did with those lists by at least their
/// size, less the panel and the weights that replace them.
#[test]
fn hex_twolevel_setup_peak_stays_under_the_block_coarse_build_pin() {
    assert!(alloc::is_counting(), "counting allocator not installed");
    // `setup_peak_bytes` per rank before the block coarse build (same mesh
    // and spec), and the pin: the peaks with the upper-triangle rank matrix
    // (7 715 586 / 7 953 654 B) plus 1 % (the triplet-list solver's pin was
    // 11 374 000 / 12 020 000, the full-storage one 10 428 000 / 10 813 000).
    const MODE_BY_MODE_PEAK: [u64; 2] = [16_552_620, 17_029_772];
    const PINNED_PEAK: [u64; 2] = [7_793_000, 8_034_000];
    // `setup_live_bytes` per rank with the triplet-list solver (the lowest
    // of three runs), and the mode entries each rank held: each list stored
    // one `(row, mode, value)` per entry.
    const TRIPLET_LIVE: [u64; 2] = [10_055_241, 10_630_089];
    const MODE_ENTRIES: [u64; 2] = [72_769, 76_793];
    // What replaces the lists: the panel of the 12 live modes over the
    // rank's 10 125 rows and the weights over them, plus the spread of the
    // message pools between runs (about 65 kB).
    const REPLACEMENT: u64 = 8 * 10_125 * (12 + 1) + (128 << 10);
    let memory = hex_twolevel_setup_memory();
    for (r, (live, peak)) in memory.into_iter().enumerate() {
        let (before, pin) = (MODE_BY_MODE_PEAK[r], PINNED_PEAK[r]);
        let triplets = 2 * (MODE_ENTRIES[r] * size_of::<(usize, usize, f64)>() as u64);
        eprintln!(
            "hex two-level rank: peak {peak} B (mode by mode {before} B, pin {pin} B), live \
             {live} B (with triplet lists {} B, lists {triplets} B)",
            TRIPLET_LIVE[r]
        );
        assert!(
            peak <= before,
            "setup peaked at {peak} B, the mode-by-mode build at {before} B"
        );
        assert!(peak <= pin, "setup peaked at {peak} B, pinned at {pin} B");
        assert!(
            live + triplets <= TRIPLET_LIVE[r] + REPLACEMENT,
            "rank holds {live} B after setup, {} B with the {triplets} B of triplet lists",
            TRIPLET_LIVE[r]
        );
    }
}

/// An elasticity EDD rank holds one matrix from assembly on: its subdomain
/// is assembled straight into node blocks, scaled in place, and the
/// two-level build walks those blocks. A small `elas3d-edd-twolevel`-shaped
/// session at P = 2 therefore peaks, on every rank, lower than the parent
/// commit's setup — which assembled CSR, converted it to blocks and kept a
/// scaled CSR copy for the coarse build — by at least 90 % of the CSR
/// arrays of that rank's subdomain.
#[test]
fn hex_twolevel_setup_peak_falls_by_the_subdomain_csr() {
    assert!(alloc::is_counting(), "counting allocator not installed");
    // `setup_peak_bytes` per rank at the parent commit, the lowest of five
    // runs (they spread by about 15 kB with the message pools).
    const PARENT_PEAK: [u64; 2] = [2_590_996, 2_942_532];
    let mesh = HexMesh::cantilever(12, 6, 6);
    let mut dm = DofMap::with_dofs(mesh.n_nodes(), 3);
    for node in mesh.face_nodes(Face::XMin) {
        dm.clamp_node(node);
    }
    let mat = Material::unit();
    let mut loads = vec![0.0; dm.n_dofs()];
    assembly::face_load(&mesh, &dm, Face::XMax, [0.0, 0.0, -1.0], &mut loads);
    let part = ElementPartition::blocks_of(&mesh, 2, 1);
    let csr: Vec<u64> = (part.subdomains_of(&mesh).iter())
        .map(|s| SubdomainSystem::build(&mesh, &dm, &mat, s, &loads, false).k_local)
        .map(|k| subdomain_csr_bytes(&k))
        .collect();
    let session = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
        .strategy(Strategy::Edd(part))
        .precond(PrecondSpec::parse("twolevel:rbm.s3:gls-3").unwrap());
    let (memory, iterations) = setup_memory(session);
    assert_eq!(iterations, 16, "the parent's iteration count");
    for (((_, peak), parent), csr) in memory.into_iter().zip(PARENT_PEAK).zip(csr) {
        eprintln!("small hex two-level rank: peak {peak} B (parent {parent} B), CSR {csr} B");
        assert!(
            10 * (parent.saturating_sub(peak)) >= 9 * csr,
            "setup peaked at {peak} B, the parent at {parent} B: less than 90 % of the \
             {csr} B subdomain CSR saved"
        );
    }
}

/// No RDD session holds the assembled matrix: the host thread of a run
/// whose global CSR is about 2 MB allocates less than a quarter of it, and no
/// rank's setup peak — its ghosted assembly, its block row and its
/// preconditioner — reaches the size of the global CSR.
#[test]
fn rdd_session_never_holds_the_global_matrix() {
    assert!(alloc::is_counting(), "counting allocator not installed");
    let mesh = QuadMesh::cantilever(60, 60);
    let mut dm = DofMap::new(mesh.n_nodes());
    dm.clamp_edge(&mesh, Edge::Left);
    let mat = Material::unit();
    let mut loads = vec![0.0; dm.n_dofs()];
    assembly::edge_load(&mesh, &dm, Edge::Right, 0.0, -1.0, &mut loads);
    let global = csr_bytes(&assembly::build_static(&mesh, &dm, &mat, &loads).stiffness);
    assert!(global >= 1 << 20, "global CSR of {global} B");

    let session = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
        .strategy(Strategy::Rdd(node_strips(&mesh, 2)))
        .precond(PrecondSpec::parse("gls:7").unwrap());
    // Untraced, so that the host thread does nothing but the session's work.
    let (out, host) = alloc::measure(|| session.run().expect("fault-free solve"));
    assert!(out.history.converged());
    let (memory, iterations) = setup_memory(session);
    assert_eq!(iterations, out.history.iterations());
    let peaks: Vec<u64> = memory.iter().map(|&(_, peak)| peak).collect();
    eprintln!(
        "global CSR {global} B; host thread allocated {} B; rank setup peaks {peaks:?} B",
        host.bytes
    );
    assert!(
        4 * host.bytes < global,
        "the host allocated {} B next to a {global} B global matrix",
        host.bytes
    );
    for peak in peaks {
        assert!(
            peak < global,
            "a rank peaked at {peak} B, the global CSR is {global} B"
        );
    }
}

/// Warm-loop measurement attempts per rank; see
/// [`warm_solves_are_iteration_free`].
const ATTEMPTS: usize = 3;

/// Runs `solve` (one distributed FGMRES on this rank; returns its iteration
/// count) once for 80 iterations to warm the workspace and the message
/// layer, then `ATTEMPTS` times a 5-iteration and an 80-iteration solve,
/// returning each pair's allocation calls.
fn short_and_long(mut solve: impl FnMut(&GmresConfig) -> usize) -> Vec<(u64, u64)> {
    // tol = 0 runs the whole iteration budget (the meshes below do not
    // reach the breakdown threshold within it).
    let short = GmresConfig {
        max_iters: 5,
        tol: 0.0,
        ..Default::default()
    };
    let long = GmresConfig {
        max_iters: 80,
        ..short
    };
    assert_eq!(solve(&long), 80);
    let mut count = |cfg: &GmresConfig| {
        let (iterations, allocs) = alloc::measure(|| solve(cfg));
        assert_eq!(iterations, cfg.max_iters);
        allocs.count
    };
    (0..ATTEMPTS)
        .map(|_| (count(&short), count(&long)))
        .collect()
}

/// Every rank's short and long warm solves allocate equally in one of the
/// attempts. A mailbox adds a payload buffer to its pool the first time its
/// queue reaches a new depth (at most two here), which scheduling decides,
/// so one attempt may catch that; an allocation per message, per
/// all-reduce or per iteration shows in every attempt.
fn warm_solves_are_iteration_free(what: &str, ranks: &[Vec<(u64, u64)>]) {
    eprintln!("{what}: (5-iteration, 80-iteration) allocation calls per rank {ranks:?}");
    assert!(
        (0..ATTEMPTS).any(|a| ranks.iter().all(|r| r[a].0 == r[a].1)),
        "{what}: the warm Krylov loop allocates per iteration on some rank: {ranks:?}"
    );
}

/// The `elas2d-edd-gls7` loop at P = 2 — eight interface exchanges and one
/// batched Gram–Schmidt all-reduce per iteration under `gls:7` — allocates
/// nothing once warm, on either rank.
#[test]
fn warm_edd_gls7_loop_allocates_nothing_per_iteration_on_any_rank() {
    assert!(alloc::is_counting(), "counting allocator not installed");
    let mesh = QuadMesh::cantilever(120, 6);
    let mut dm = DofMap::new(mesh.n_nodes());
    dm.clamp_edge(&mesh, Edge::Left);
    let mat = Material::unit();
    let mut loads = vec![0.0; dm.n_dofs()];
    assembly::edge_load(&mesh, &dm, Edge::Right, 0.0, -1.0, &mut loads);
    let systems: Vec<SubdomainSystem> = (ElementPartition::strips_x(&mesh, 2).subdomains_of(&mesh))
        .iter()
        .map(|s| SubdomainSystem::build(&mesh, &dm, &mat, s, &loads, false))
        .collect();
    let out = run_ranks(2, MachineModel::ideal(), |comm| {
        let sys = &systems[comm.rank()];
        let layout = EddLayout::from_system(sys);
        let scaling = DistributedScaling::build(comm, &layout, &sys.k_local);
        let mut b = sys.f_local.clone();
        let a = scaling.apply(sys.k_local.clone(), &mut b, &layout);
        let op = EddOperator::new(a, layout, comm, EddVariant::Enhanced, false);
        let gls = GlsPrecond::for_scaled_system(7);
        let x0 = vec![0.0; b.len()];
        let mut ws = KrylovWorkspace::new();
        short_and_long(|cfg| {
            let res = fgmres_on(&op, &gls, &b, &x0, cfg, &mut ws);
            res.expect("fault-free solve").history.iterations()
        })
    });
    warm_solves_are_iteration_free("EDD gls:7", &out.results);
}

/// The same for the RDD block-row loop of `heat2d-rdd-multirhs`: a halo
/// exchange per matrix application, one all-reduce per iteration.
#[test]
fn warm_rdd_gls7_heat_loop_allocates_nothing_per_iteration_on_any_rank() {
    assert!(alloc::is_counting(), "counting allocator not installed");
    let mesh = QuadMesh::cantilever(120, 6);
    let mut dm = DofMap::with_dofs(mesh.n_nodes(), 1);
    dm.clamp_edge(&mesh, Edge::Left);
    let mat = Material::unit();
    let mut loads = vec![0.0; dm.n_dofs()];
    assembly::edge_source(&mesh, &dm, Edge::Right, 1.0, &mut loads);
    let global = assembly::build_static(
        Discretization::new(&mesh, Physics::Heat2d),
        &dm,
        &mat,
        &loads,
    );
    let (a, b, _) = scale_system(&global.stiffness, &global.rhs).expect("square system");
    let systems = RddSystem::build_all(&a, &b, &node_strips(&mesh, 2));
    let out = run_ranks(2, MachineModel::ideal(), |comm| {
        let sys = &systems[comm.rank()];
        let op = RddOperator::new(sys.clone(), comm, false);
        let gls = GlsPrecond::for_scaled_system(7);
        let x0 = vec![0.0; sys.n_local()];
        let mut ws = KrylovWorkspace::new();
        short_and_long(|cfg| {
            let res = fgmres_on(&op, &gls, &sys.b_loc, &x0, cfg, &mut ws);
            res.expect("fault-free solve").history.iterations()
        })
    });
    warm_solves_are_iteration_free("RDD heat gls:7", &out.results);
}
