//! Golden bit-identity tests for the one FGMRES loop at P ≥ 2.
//!
//! The constants below were captured from the pre-refactor EDD and RDD
//! solvers (the hand-maintained twin solver loops, before both were
//! collapsed onto one loop, now `parfem_krylov::fgmres_on`). Each case
//! pins the iteration count, restart count, and an FNV-1a hash over the
//! exact bit patterns of the per-rank solutions and the residual history —
//! so any change to the floating-point operation sequence of the shared
//! solver shows up as a hard failure, not a tolerance drift.
//!
//! The EDD-elasticity digests were re-pinned once, when the EDD local
//! operator became 2×2 node blocks (row sums reassociated block by block;
//! every iteration and restart count stayed as captured — CHANGES.md, PR 23,
//! lists old → new). The RDD (plane elasticity) digests were re-pinned once
//! when the RDD `a_loc` became 2×2 node blocks, for the same reason and with
//! the same counts (CHANGES.md lists old → new); the block product is held
//! to the CSR one by `rdd_block_product_stays_within_the_reassociation_bound`.
//! The two restart-8 digests were re-pinned once more when the restart
//! became deflated (FGMRES-DR); the restart-3 digests, captured under plain
//! restarting, pin that restarts below four still deflate nothing.
//! Every elasticity digest was re-pinned once more when the element
//! matrices became the mirror of their upper triangles (the lower triangle
//! of every assembled matrix moved in its last bits; every iteration and
//! restart count stayed as captured — CHANGES.md lists old → new). The
//! mirror is held to the directly computed lower triangle by
//! `parfem-fem`'s `hex_stiffness_mirror_stays_within_the_reassociation_bound`.
//!
//! Re-capture (only when a *deliberate* numerical change is made) with:
//!
//! ```text
//! GOLDEN_PRINT=1 cargo test -p parfem-dd --test golden -- --nocapture
//! ```

use parfem_dd::scaling::DistributedScaling;
use parfem_dd::{
    EddLayout, EddOperator, EddVariant, PrecondSpec, Problem, RddOperator, RddSystem, SolveSession,
    SolverConfig, Strategy,
};
use parfem_fem::{assembly, Material, SubdomainSystem};
use parfem_krylov::gmres::GmresConfig;
use parfem_krylov::{fgmres_on, ConvergenceHistory, KrylovWorkspace};
use parfem_mesh::{DofMap, Edge, ElementPartition, NodePartition, QuadMesh};
use parfem_msg::{run_ranks, Communicator, FaultPlan, FaultyComm, MachineModel};
use parfem_precond::{GlsPrecond, IdentityPrecond};
use parfem_sparse::scaling::scale_system;
use parfem_sparse::{dense, CsrMatrix, LinearOperator, NodeMatrix};

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
    fn f64s(&mut self, xs: &[f64]) {
        for &x in xs {
            self.word(x.to_bits());
        }
    }
}

/// The digest one golden case pins.
#[derive(Debug, PartialEq, Eq)]
struct Digest {
    iterations: usize,
    restarts: usize,
    /// FNV-1a over the bit patterns of every rank's solution, rank order.
    x_hash: u64,
    /// FNV-1a over the bit patterns of the relative-residual history.
    res_hash: u64,
}

fn edd_digest(
    nx: usize,
    ny: usize,
    p: usize,
    degree: usize,
    variant: EddVariant,
    cfg: &GmresConfig,
) -> Digest {
    edd_digest_overlap(nx, ny, p, degree, variant, cfg, false, None)
}

/// The per-rank EDD golden body, generic over the communicator so the same
/// floating-point sequence runs on the raw [`run_ranks`] endpoint and under
/// a [`FaultyComm`] chaos wrapper.
fn edd_rank_body<C: Communicator>(
    comm: &C,
    sys: &SubdomainSystem,
    gls: Option<&GlsPrecond>,
    cfg: &GmresConfig,
    variant: EddVariant,
    overlap: bool,
) -> (Vec<f64>, ConvergenceHistory) {
    let layout = EddLayout::from_system(sys);
    let sc = DistributedScaling::build(comm, &layout, &sys.k_local);
    let mut b = sys.f_local.clone();
    let a = sc.apply(sys.k_local.clone(), &mut b, &layout);
    let op = EddOperator::new(a, layout, comm, variant, overlap);
    let x0 = vec![0.0; b.len()];
    let ws = &mut KrylovWorkspace::new();
    let res = match gls {
        Some(g) => fgmres_on(&op, g, &b, &x0, cfg, ws),
        None => fgmres_on(&op, &IdentityPrecond, &b, &x0, cfg, ws),
    }
    .expect("recoverable golden run must solve");
    let mut u = res.x;
    dense::diag_mul(&sc.d, &mut u);
    (u, res.history)
}

#[allow(clippy::too_many_arguments)]
fn edd_digest_overlap(
    nx: usize,
    ny: usize,
    p: usize,
    degree: usize,
    variant: EddVariant,
    cfg: &GmresConfig,
    overlap: bool,
    faults: Option<FaultPlan>,
) -> Digest {
    let mesh = QuadMesh::cantilever(nx, ny);
    let mut dm = DofMap::new(mesh.n_nodes());
    dm.clamp_edge(&mesh, Edge::Left);
    let mat = Material::unit();
    let mut loads = vec![0.0; dm.n_dofs()];
    assembly::edge_load(&mesh, &dm, Edge::Right, 0.0, -1.0, &mut loads);
    let part = ElementPartition::strips_x(&mesh, p);
    let systems: Vec<SubdomainSystem> = part
        .subdomains_of(&mesh)
        .iter()
        .map(|s| SubdomainSystem::build(&mesh, &dm, &mat, s, &loads, false))
        .collect();
    let gls = (degree > 0).then(|| GlsPrecond::for_scaled_system(degree));
    let out = run_ranks(p, MachineModel::ideal(), |comm| {
        let sys = &systems[comm.rank()];
        match &faults {
            Some(plan) => {
                let faulty = FaultyComm::new(comm, plan.clone());
                edd_rank_body(&faulty, sys, gls.as_ref(), cfg, variant, overlap)
            }
            None => edd_rank_body(comm, sys, gls.as_ref(), cfg, variant, overlap),
        }
    });
    let mut xh = Fnv::new();
    for (u, _) in &out.results {
        xh.f64s(u);
    }
    let mut rh = Fnv::new();
    rh.f64s(&out.results[0].1.relative_residuals);
    Digest {
        iterations: out.results[0].1.iterations(),
        restarts: out.results[0].1.restarts,
        x_hash: xh.0,
        res_hash: rh.0,
    }
}

enum RddPre {
    Identity,
    Gls(usize),
    LocalIlu,
}

fn rdd_digest(nx: usize, ny: usize, p: usize, pre: RddPre, cfg: &GmresConfig) -> Digest {
    rdd_digest_overlap(nx, ny, p, pre, cfg, false, None)
}

/// The per-rank RDD golden body, generic over the communicator (see
/// [`edd_rank_body`]).
fn rdd_rank_body<C: Communicator>(
    comm: &C,
    sys: &RddSystem,
    gls: Option<&GlsPrecond>,
    ilu: bool,
    cfg: &GmresConfig,
    overlap: bool,
) -> (Vec<f64>, ConvergenceHistory) {
    let op = RddOperator::new(sys.clone(), comm, overlap);
    let x0 = vec![0.0; sys.n_local()];
    let (b, ws) = (&sys.b_loc, &mut KrylovWorkspace::new());
    let res = if let Some(g) = gls {
        fgmres_on(&op, g, b, &x0, cfg, ws)
    } else if ilu {
        // Block-Jacobi ILU(0): the `ilu0` spec on the rank's owned block.
        let a_loc = &sys.a_loc;
        let f = PrecondSpec::Ilu0
            .instantiate(None, Some(a_loc), || a_loc.diagonal())
            .expect("factorize");
        fgmres_on(&op, &f, b, &x0, cfg, ws)
    } else {
        fgmres_on(&op, &IdentityPrecond, b, &x0, cfg, ws)
    }
    .expect("recoverable golden run must solve");
    (res.x, res.history)
}

fn rdd_digest_overlap(
    nx: usize,
    ny: usize,
    p: usize,
    pre: RddPre,
    cfg: &GmresConfig,
    overlap: bool,
    faults: Option<FaultPlan>,
) -> Digest {
    let mesh = QuadMesh::cantilever(nx, ny);
    let mut dm = DofMap::new(mesh.n_nodes());
    dm.clamp_edge(&mesh, Edge::Left);
    let mat = Material::unit();
    let mut loads = vec![0.0; dm.n_dofs()];
    assembly::edge_load(&mesh, &dm, Edge::Right, 0.0, -1.0, &mut loads);
    let sys = assembly::build_static(&mesh, &dm, &mat, &loads);
    let (a, b, _sc) = scale_system(&sys.stiffness, &sys.rhs).unwrap();
    let n = mesh.n_nodes();
    let part = NodePartition::from_owner(p, (0..n).map(|i| (i * p) / n).collect());
    let systems = RddSystem::build_all(&a, &b, &part);
    let gls = match pre {
        RddPre::Gls(d) => Some(GlsPrecond::for_scaled_system(d)),
        _ => None,
    };
    let ilu = matches!(pre, RddPre::LocalIlu);
    let out = run_ranks(p, MachineModel::ideal(), |comm| {
        let sys = &systems[comm.rank()];
        match &faults {
            Some(plan) => {
                let faulty = FaultyComm::new(comm, plan.clone());
                rdd_rank_body(&faulty, sys, gls.as_ref(), ilu, cfg, overlap)
            }
            None => rdd_rank_body(comm, sys, gls.as_ref(), ilu, cfg, overlap),
        }
    });
    let mut xh = Fnv::new();
    for (u, _) in &out.results {
        xh.f64s(u);
    }
    let mut rh = Fnv::new();
    rh.f64s(&out.results[0].1.relative_residuals);
    Digest {
        iterations: out.results[0].1.iterations(),
        restarts: out.results[0].1.restarts,
        x_hash: xh.0,
        res_hash: rh.0,
    }
}

fn check(name: &str, got: Digest, want: Digest) {
    if std::env::var("GOLDEN_PRINT").is_ok() {
        println!(
            "{name}: Digest {{ iterations: {}, restarts: {}, x_hash: 0x{:016x}, res_hash: 0x{:016x} }}",
            got.iterations, got.restarts, got.x_hash, got.res_hash
        );
        return;
    }
    assert_eq!(got, want, "{name}: drifted from the pre-refactor solver");
}

fn cfg(tol: f64) -> GmresConfig {
    GmresConfig {
        tol,
        ..Default::default()
    }
}

#[test]
fn edd_enhanced_gls5_matches_pre_refactor() {
    check(
        "edd_enhanced_gls5",
        edd_digest(8, 3, 4, 5, EddVariant::Enhanced, &cfg(1e-8)),
        Digest {
            iterations: 13,
            restarts: 0,
            x_hash: 0xb574d592537a92f1,
            res_hash: 0xee806de9a3107988,
        },
    );
}

#[test]
fn edd_basic_gls3_matches_pre_refactor() {
    check(
        "edd_basic_gls3",
        edd_digest(6, 2, 3, 3, EddVariant::Basic, &cfg(1e-8)),
        Digest {
            iterations: 12,
            restarts: 0,
            x_hash: 0xf0901fdfa2c035eb,
            res_hash: 0x6bab7ac245783147,
        },
    );
}

#[test]
fn edd_enhanced_unpreconditioned_matches_pre_refactor() {
    // Unpreconditioned on a longer run: exercises restarts.
    let c = GmresConfig {
        tol: 1e-7,
        max_iters: 2000,
        ..Default::default()
    };
    check(
        "edd_enhanced_plain",
        edd_digest(6, 2, 2, 0, EddVariant::Enhanced, &c),
        Digest {
            iterations: 18,
            restarts: 0,
            x_hash: 0x2757ff6feda19006,
            res_hash: 0xd7cb176feb2b0b9c,
        },
    );
}

/// Why the RDD plane-elasticity digests were re-pinned: the block product
/// `[A_loc | A_ext] x` with `A_loc` in 2×2 node blocks differs from the same
/// rows applied as CSR only by the association of each row's sum, so on
/// every rank of the `rdd_gls5` case each entry stays within
/// `2·k·ε·Σ_j |a_ij x_j|` (`k` the row's entry count) of the CSR product.
#[test]
fn rdd_block_product_stays_within_the_reassociation_bound() {
    let mesh = QuadMesh::cantilever(8, 2);
    let mut dm = DofMap::new(mesh.n_nodes());
    dm.clamp_edge(&mesh, Edge::Left);
    let mut loads = vec![0.0; dm.n_dofs()];
    assembly::edge_load(&mesh, &dm, Edge::Right, 0.0, -1.0, &mut loads);
    let sys = assembly::build_static(&mesh, &dm, &Material::unit(), &loads);
    let (a, b, _) = scale_system(&sys.stiffness, &sys.rhs).unwrap();
    let n = mesh.n_nodes();
    let part = NodePartition::from_owner(4, (0..n).map(|i| (i * 4) / n).collect());
    let systems = RddSystem::build_all(&a, &b, &part);
    let x: Vec<f64> = (0..a.n_rows()).map(|i| (0.7 * i as f64).sin()).collect();
    let out = run_ranks(4, MachineModel::ideal(), |comm| {
        let blocks = &systems[comm.rank()];
        assert!(
            blocks.a_loc.as_blocks().is_some(),
            "plane elasticity is 2x2 blocks"
        );
        let scalar = RddSystem {
            a_loc: NodeMatrix::Csr(CsrMatrix::from_rows(&blocks.a_loc)),
            ..blocks.clone()
        };
        let xl = blocks.restrict(&x);
        let y_blocks = RddOperator::new(blocks.clone(), comm, false).apply(&xl);
        let y_csr = RddOperator::new(scalar, comm, false).apply(&xl);
        let mut differ = 0;
        for (r, (yb, yc)) in y_blocks.iter().zip(&y_csr).enumerate() {
            let row = a.row(blocks.rows[r]);
            let magnitude: f64 = (row.0.iter().zip(row.1))
                .map(|(&c, v)| (v * x[c]).abs())
                .sum();
            let bound = 2.0 * row.0.len() as f64 * f64::EPSILON * magnitude;
            assert!(
                (yb - yc).abs() <= bound,
                "rank {} row {r}: {yb} vs {yc}",
                blocks.rank
            );
            differ += usize::from(yb != yc);
        }
        differ
    });
    // The association does change the bits somewhere.
    assert!(out.results.iter().sum::<usize>() > 0);
}

#[test]
fn rdd_gls5_matches_pre_refactor() {
    check(
        "rdd_gls5",
        rdd_digest(8, 2, 4, RddPre::Gls(5), &cfg(1e-9)),
        Digest {
            iterations: 13,
            restarts: 0,
            x_hash: 0x5382cb386fddccd2,
            res_hash: 0x1eac66975326b919,
        },
    );
}

#[test]
fn rdd_unpreconditioned_matches_pre_refactor() {
    let c = GmresConfig {
        tol: 1e-7,
        max_iters: 2000,
        ..Default::default()
    };
    check(
        "rdd_plain",
        rdd_digest(5, 2, 2, RddPre::Identity, &c),
        Digest {
            iterations: 15,
            restarts: 0,
            x_hash: 0x5a3aa638a13b09b5,
            res_hash: 0x1fc4cb2c31ff094f,
        },
    );
}

#[test]
fn edd_short_restart_matches_pre_refactor() {
    // Small restart length: exercises the deflated restart (k = 2 harmonic
    // Ritz vectors carried, one Gram reduction per restart). Re-pinned once
    // when the restart began to deflate: 1254 iterations, 156 restarts under
    // plain restarting.
    let c = GmresConfig {
        tol: 1e-7,
        restart: 8,
        max_iters: 2000,
        ..Default::default()
    };
    check(
        "edd_restart8",
        edd_digest(6, 2, 2, 0, EddVariant::Enhanced, &c),
        Digest {
            iterations: 54,
            restarts: 8,
            x_hash: 0x9c1a4a4a7c45386a,
            res_hash: 0x19fb682c7cff57bb,
        },
    );
}

#[test]
fn rdd_short_restart_matches_pre_refactor() {
    // Deflated restart as above; 397 iterations, 49 restarts under plain
    // restarting.
    let c = GmresConfig {
        tol: 1e-7,
        restart: 8,
        max_iters: 2000,
        ..Default::default()
    };
    check(
        "rdd_restart8",
        rdd_digest(5, 2, 2, RddPre::Identity, &c),
        Digest {
            iterations: 34,
            restarts: 5,
            x_hash: 0x7ab6d03f6b250f1e,
            res_hash: 0x59c9dd91441b3f0d,
        },
    );
}

/// Restart lengths below four deflate nothing (`k = m/4 = 0`): the restart
/// recomputes the true residual exactly as plain restarted FGMRES. These
/// digests were captured from plain restarting before the deflated restart
/// existed and must hold bit for bit.
#[test]
fn plain_restart_below_four_matches_plain_restarting() {
    let c = GmresConfig {
        tol: 1e-7,
        restart: 3,
        max_iters: 2000,
        ..Default::default()
    };
    check(
        "edd_gls3_restart3",
        edd_digest(6, 2, 2, 3, EddVariant::Enhanced, &c),
        Digest {
            iterations: 230,
            restarts: 76,
            x_hash: 0xf3cecfea4e0a0d2a,
            res_hash: 0x365e587bec4c5db4,
        },
    );
    check(
        "rdd_gls3_restart3",
        rdd_digest(5, 2, 2, RddPre::Gls(3), &c),
        Digest {
            iterations: 132,
            restarts: 43,
            x_hash: 0xccf77bb362989d55,
            res_hash: 0xa8c61b0c4a225551,
        },
    );
}

#[test]
fn edd_overlapped_matches_pre_refactor_blocking_digest() {
    // The overlapped exchange schedule must reproduce the pre-refactor
    // *blocking* digest exactly: overlap reorders which rows compute while
    // messages fly, never the arithmetic.
    check(
        "edd_enhanced_gls5_overlap",
        edd_digest_overlap(8, 3, 4, 5, EddVariant::Enhanced, &cfg(1e-8), true, None),
        Digest {
            iterations: 13,
            restarts: 0,
            x_hash: 0xb574d592537a92f1,
            res_hash: 0xee806de9a3107988,
        },
    );
    check(
        "edd_basic_gls3_overlap",
        edd_digest_overlap(6, 2, 3, 3, EddVariant::Basic, &cfg(1e-8), true, None),
        Digest {
            iterations: 12,
            restarts: 0,
            x_hash: 0xf0901fdfa2c035eb,
            res_hash: 0x6bab7ac245783147,
        },
    );
}

#[test]
fn rdd_overlapped_matches_pre_refactor_blocking_digest() {
    check(
        "rdd_gls5_overlap",
        rdd_digest_overlap(8, 2, 4, RddPre::Gls(5), &cfg(1e-9), true, None),
        Digest {
            iterations: 13,
            restarts: 0,
            x_hash: 0x5382cb386fddccd2,
            res_hash: 0x1eac66975326b919,
        },
    );
    check(
        "rdd_local_ilu_overlap",
        rdd_digest_overlap(6, 2, 3, RddPre::LocalIlu, &cfg(1e-8), true, None),
        Digest {
            iterations: 13,
            restarts: 0,
            x_hash: 0xb819820ef9dabac8,
            res_hash: 0xcda7bf4ad073c8d1,
        },
    );
}

#[test]
fn rdd_local_ilu_matches_pre_refactor() {
    check(
        "rdd_local_ilu",
        rdd_digest(6, 2, 3, RddPre::LocalIlu, &cfg(1e-8)),
        Digest {
            iterations: 13,
            restarts: 0,
            x_hash: 0xb819820ef9dabac8,
            res_hash: 0xcda7bf4ad073c8d1,
        },
    );
}

// ---------------------------------------------------------------------------
// Fault-plan golden cases: a recoverable chaos schedule must reproduce the
// *fault-free* digests above bit for bit. Delays and duplicates perturb only
// message timing and wire traffic; the sequence-numbered delivery layer makes
// the payload stream — and hence every floating-point operation of the solve
// — identical to the clean run.
// ---------------------------------------------------------------------------

/// A delay-heavy recoverable plan (80% of frames late by up to 1 ms).
fn delay_plan() -> FaultPlan {
    FaultPlan::new(101).with_delays(0.8, 1e-3)
}

/// A duplicate-heavy recoverable plan (60% of frames sent twice).
fn duplicate_plan() -> FaultPlan {
    FaultPlan::new(202).with_duplicates(0.6)
}

#[test]
fn edd_under_delay_plan_matches_fault_free_digest() {
    let want = || Digest {
        iterations: 13,
        restarts: 0,
        x_hash: 0xb574d592537a92f1,
        res_hash: 0xee806de9a3107988,
    };
    for overlap in [false, true] {
        check(
            "edd_enhanced_gls5_delayed",
            edd_digest_overlap(
                8,
                3,
                4,
                5,
                EddVariant::Enhanced,
                &cfg(1e-8),
                overlap,
                Some(delay_plan()),
            ),
            want(),
        );
    }
}

#[test]
fn edd_under_duplicate_plan_matches_fault_free_digest() {
    let want = || Digest {
        iterations: 12,
        restarts: 0,
        x_hash: 0xf0901fdfa2c035eb,
        res_hash: 0x6bab7ac245783147,
    };
    for overlap in [false, true] {
        check(
            "edd_basic_gls3_duplicated",
            edd_digest_overlap(
                6,
                2,
                3,
                3,
                EddVariant::Basic,
                &cfg(1e-8),
                overlap,
                Some(duplicate_plan()),
            ),
            want(),
        );
    }
}

#[test]
fn rdd_under_delay_plan_matches_fault_free_digest() {
    let want = || Digest {
        iterations: 13,
        restarts: 0,
        x_hash: 0x5382cb386fddccd2,
        res_hash: 0x1eac66975326b919,
    };
    for overlap in [false, true] {
        check(
            "rdd_gls5_delayed",
            rdd_digest_overlap(
                8,
                2,
                4,
                RddPre::Gls(5),
                &cfg(1e-9),
                overlap,
                Some(delay_plan()),
            ),
            want(),
        );
    }
}

#[test]
fn rdd_under_duplicate_plan_matches_fault_free_digest() {
    let want = || Digest {
        iterations: 13,
        restarts: 0,
        x_hash: 0xb819820ef9dabac8,
        res_hash: 0xcda7bf4ad073c8d1,
    };
    for overlap in [false, true] {
        check(
            "rdd_local_ilu_duplicated",
            rdd_digest_overlap(
                6,
                2,
                3,
                RddPre::LocalIlu,
                &cfg(1e-8),
                overlap,
                Some(duplicate_plan()),
            ),
            want(),
        );
    }
}

// ---------------------------------------------------------------------------
// Session-path golden cases: the `SolveSession` builder must reproduce the
// pinned pre-refactor convergence bits. The per-rank `x_hash` does not apply
// (the session returns one assembled global solution), so these cases pin
// iterations, restarts and the residual-history hash of the named digests
// above — any drift in the session pipeline's floating-point sequence
// trips the same wire as the raw-solver cases.
// ---------------------------------------------------------------------------

/// The cantilever of the session cases, clamped left and sheared right.
fn session_problem(nx: usize, ny: usize) -> (QuadMesh, DofMap, Material, Vec<f64>) {
    let mesh = QuadMesh::cantilever(nx, ny);
    let mut dm = DofMap::new(mesh.n_nodes());
    dm.clamp_edge(&mesh, Edge::Left);
    let mut loads = vec![0.0; dm.n_dofs()];
    assembly::edge_load(&mesh, &dm, Edge::Right, 0.0, -1.0, &mut loads);
    (mesh, dm, Material::unit(), loads)
}

fn session_cfg(tol: f64) -> SolverConfig {
    SolverConfig {
        gmres: cfg(tol),
        precond: PrecondSpec::Gls {
            degree: 5,
            theta: None,
        },
        ..SolverConfig::default()
    }
}

/// Pins a session history to a named raw-solver digest above.
fn check_history(name: &str, history: &ConvergenceHistory, res_hash: u64) {
    assert_eq!(history.iterations(), 13, "{name}");
    assert_eq!(history.restarts, 0, "{name}");
    let mut rh = Fnv::new();
    rh.f64s(&history.relative_residuals);
    assert_eq!(
        rh.0, res_hash,
        "{name} drifted from the pinned raw-solver history"
    );
}

#[test]
fn session_reproduces_edd_enhanced_gls5_history() {
    // Same case as `edd_enhanced_gls5` above, through the builder: `run()`
    // and `run_multi` of the same load both reproduce it, and agree on the
    // solution bit for bit.
    const PINNED: u64 = 0xee806de9a3107988;
    let (mesh, dm, mat, loads) = session_problem(8, 3);
    let part = ElementPartition::strips_x(&mesh, 4);
    let session = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
        .strategy(Strategy::Edd(part))
        .config(session_cfg(1e-8));
    let out = session.run().expect("golden session must solve");
    check_history("session EDD run", &out.history, PINNED);

    let multi = session
        .run_multi(std::slice::from_ref(&loads))
        .expect("golden session must solve");
    check_history("session EDD run_multi", &multi.histories[0], PINNED);
    assert_eq!(multi.solutions[0], out.u, "run_multi(&[loads]) ≡ run()");
}

#[test]
fn session_reproduces_rdd_gls5_history() {
    // Same case as `rdd_gls5` above, through the builder.
    const PINNED: u64 = 0x1eac66975326b919;
    let (mesh, dm, mat, loads) = session_problem(8, 2);
    let session = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
        .strategy(Strategy::Rdd(NodePartition::from_owner(
            4,
            (0..mesh.n_nodes())
                .map(|i| (i * 4) / mesh.n_nodes())
                .collect(),
        )))
        .config(session_cfg(1e-9));
    let out = session.run().expect("golden session must solve");
    check_history("session RDD run", &out.history, PINNED);

    let multi = session
        .run_multi(std::slice::from_ref(&loads))
        .expect("golden session must solve");
    check_history("session RDD run_multi", &multi.histories[0], PINNED);
    assert_eq!(multi.solutions[0], out.u, "run_multi(&[loads]) ≡ run()");
}
