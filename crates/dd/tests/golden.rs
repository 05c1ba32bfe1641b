//! Golden bit-identity tests for the one FGMRES loop at P ≥ 2.
//!
//! The constants below were captured from the pre-refactor
//! `edd_fgmres`/`rdd_fgmres` implementations (the hand-maintained twin
//! solver loops, before both were collapsed onto one loop, now
//! `parfem_krylov::fgmres_on`). Each case
//! pins the iteration count, restart count, and an FNV-1a hash over the
//! exact bit patterns of the per-rank solutions and the residual history —
//! so any change to the floating-point operation sequence of the shared
//! solver shows up as a hard failure, not a tolerance drift.
//!
//! The EDD-elasticity digests were re-pinned once, when the EDD local
//! operator became 2×2 node blocks (row sums reassociated block by block;
//! every iteration and restart count stayed as captured — CHANGES.md, PR 23,
//! lists old → new). The RDD digests are the original capture.
//!
//! Re-capture (only when a *deliberate* numerical change is made) with:
//!
//! ```text
//! GOLDEN_PRINT=1 cargo test -p parfem-dd --test golden -- --nocapture
//! ```

use parfem_dd::scaling::DistributedScaling;
use parfem_dd::{
    edd_fgmres, rdd_fgmres, EddLayout, EddVariant, PrecondSpec, Problem, RddLocalIlu, RddSystem,
    SolveSession, SolverConfig, Strategy,
};
use parfem_fem::{assembly, Material, SubdomainSystem};
use parfem_krylov::gmres::GmresConfig;
use parfem_krylov::{ConvergenceHistory, KrylovWorkspace};
use parfem_mesh::{DofMap, Edge, ElementPartition, NodePartition, QuadMesh};
use parfem_msg::{run_ranks, Communicator, FaultPlan, FaultyComm, MachineModel};
use parfem_precond::{GlsPrecond, IdentityPrecond};
use parfem_sparse::scaling::scale_system;

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
    let mut layout = EddLayout::from_system(sys);
    layout.set_overlap(overlap);
    let sc = DistributedScaling::build(comm, &layout, &sys.k_local);
    let mut b = sys.f_local.clone();
    let a = sc.apply(&sys.k_local, &mut b, &layout);
    let x0 = vec![0.0; b.len()];
    let ws = &mut KrylovWorkspace::new();
    let res = match gls {
        Some(g) => edd_fgmres(comm, &layout, &a, g, &b, &x0, cfg, variant, ws),
        None => {
            let id = &IdentityPrecond;
            edd_fgmres(comm, &layout, &a, id, &b, &x0, cfg, variant, ws)
        }
    }
    .expect("recoverable golden run must solve");
    let mut u = res.x;
    sc.unscale(&mut u);
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
        .subdomains(&mesh)
        .iter()
        .map(|s| SubdomainSystem::build(&mesh, &dm, &mat, s, &loads, None))
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
) -> (Vec<f64>, ConvergenceHistory) {
    let x0 = vec![0.0; sys.n_local()];
    let (b, ws) = (&sys.b_loc, &mut KrylovWorkspace::new());
    let res = if let Some(g) = gls {
        rdd_fgmres(comm, sys, g, b, &x0, cfg, ws)
    } else if ilu {
        let f = RddLocalIlu::factorize(sys).expect("factorize");
        rdd_fgmres(comm, sys, &f, b, &x0, cfg, ws)
    } else {
        rdd_fgmres(comm, sys, &IdentityPrecond, b, &x0, cfg, ws)
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
    let part = NodePartition::contiguous(mesh.n_nodes(), p);
    let mut systems = RddSystem::build_all(&a, &b, &part);
    for s in &mut systems {
        s.overlap = overlap;
    }
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
                rdd_rank_body(&faulty, sys, gls.as_ref(), ilu, cfg)
            }
            None => rdd_rank_body(comm, sys, gls.as_ref(), ilu, cfg),
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
            x_hash: 0x75a0e92c8008ae7b,
            res_hash: 0x12809d64e1880512,
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
            x_hash: 0x1553727e6581e937,
            res_hash: 0x7850c062f14141e3,
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
            x_hash: 0x1afcdf2506c947da,
            res_hash: 0x10d3d2dd4154fbdd,
        },
    );
}

#[test]
fn rdd_gls5_matches_pre_refactor() {
    check(
        "rdd_gls5",
        rdd_digest(8, 2, 4, RddPre::Gls(5), &cfg(1e-9)),
        Digest {
            iterations: 13,
            restarts: 0,
            x_hash: 0x09911e4844f6b481,
            res_hash: 0xa284689e9f354307,
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
            x_hash: 0x5948d314a21be0e4,
            res_hash: 0xb4b4db4aff3d035a,
        },
    );
}

#[test]
fn edd_short_restart_matches_pre_refactor() {
    // Small restart length: exercises the restart/residual-recompute path.
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
            iterations: 1254,
            restarts: 156,
            x_hash: 0x4251a5d7e4c3173f,
            res_hash: 0x753149a65d2c0976,
        },
    );
}

#[test]
fn rdd_short_restart_matches_pre_refactor() {
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
            iterations: 397,
            restarts: 49,
            x_hash: 0x07f3214e42152f98,
            res_hash: 0xd122d8fdb2e7b98d,
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
            x_hash: 0x75a0e92c8008ae7b,
            res_hash: 0x12809d64e1880512,
        },
    );
    check(
        "edd_basic_gls3_overlap",
        edd_digest_overlap(6, 2, 3, 3, EddVariant::Basic, &cfg(1e-8), true, None),
        Digest {
            iterations: 12,
            restarts: 0,
            x_hash: 0x1553727e6581e937,
            res_hash: 0x7850c062f14141e3,
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
            x_hash: 0x09911e4844f6b481,
            res_hash: 0xa284689e9f354307,
        },
    );
    check(
        "rdd_local_ilu_overlap",
        rdd_digest_overlap(6, 2, 3, RddPre::LocalIlu, &cfg(1e-8), true, None),
        Digest {
            iterations: 13,
            restarts: 0,
            x_hash: 0x47a6ca904898afdd,
            res_hash: 0x6d5045eb980f57ac,
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
            x_hash: 0x47a6ca904898afdd,
            res_hash: 0x6d5045eb980f57ac,
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
        x_hash: 0x75a0e92c8008ae7b,
        res_hash: 0x12809d64e1880512,
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
        x_hash: 0x1553727e6581e937,
        res_hash: 0x7850c062f14141e3,
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
        x_hash: 0x09911e4844f6b481,
        res_hash: 0xa284689e9f354307,
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
        x_hash: 0x47a6ca904898afdd,
        res_hash: 0x6d5045eb980f57ac,
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
    // Same case as `edd_enhanced_gls5` above, through the builder: `run()`,
    // `run_multi` of the same load, and prebuilt systems all reproduce it,
    // and agree on the solution bit for bit.
    const PINNED: u64 = 0x12809d64e1880512;
    let (mesh, dm, mat, loads) = session_problem(8, 3);
    let part = ElementPartition::strips_x(&mesh, 4);
    let session = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
        .strategy(Strategy::Edd(part.clone()))
        .config(session_cfg(1e-8));
    let out = session.run().expect("golden session must solve");
    check_history("session EDD run", &out.history, PINNED);

    let multi = session
        .run_multi(std::slice::from_ref(&loads))
        .expect("golden session must solve");
    check_history("session EDD run_multi", &multi.histories[0], PINNED);
    assert_eq!(multi.solutions[0], out.u, "run_multi(&[loads]) ≡ run()");

    let systems: Vec<SubdomainSystem> = part
        .subdomains(&mesh)
        .iter()
        .map(|s| SubdomainSystem::build(&mesh, &dm, &mat, s, &loads, None))
        .collect();
    let prebuilt = SolveSession::from_systems(&systems, dm.n_dofs())
        .config(session_cfg(1e-8))
        .run()
        .expect("golden session must solve");
    check_history("session from_systems", &prebuilt.history, PINNED);
    assert_eq!(prebuilt.u, out.u, "from_systems ≡ mesh-level run()");
}

#[test]
fn session_reproduces_rdd_gls5_history() {
    // Same case as `rdd_gls5` above, through the builder.
    const PINNED: u64 = 0xa284689e9f354307;
    let (mesh, dm, mat, loads) = session_problem(8, 2);
    let session = SolveSession::new(Problem::new(&mesh, &dm, &mat, &loads))
        .strategy(Strategy::Rdd(NodePartition::contiguous(mesh.n_nodes(), 4)))
        .config(session_cfg(1e-9));
    let out = session.run().expect("golden session must solve");
    check_history("session RDD run", &out.history, PINNED);

    let multi = session
        .run_multi(std::slice::from_ref(&loads))
        .expect("golden session must solve");
    check_history("session RDD run_multi", &multi.histories[0], PINNED);
    assert_eq!(multi.solutions[0], out.u, "run_multi(&[loads]) ≡ run()");
}
