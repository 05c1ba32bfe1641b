//! Counting-allocator regression test: after a workspace is warm, the
//! FGMRES restart/iteration loop performs zero heap allocation. The only
//! per-solve allocations left are the result vectors (`x` clone and the
//! residual history), whose count does not depend on how many iterations
//! run — which is exactly what this test pins down.

use parfem_krylov::gmres::{fgmres_on, GmresConfig, OneRank};
use parfem_krylov::KrylovWorkspace;
use parfem_precond::{DirectPrecond, GlsPrecond, IdentityPrecond, Preconditioner};
use parfem_sparse::{scaling, BcsrMatrix, CooMatrix, CsrMatrix, LinearOperator};
use parfem_trace::alloc::{self, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A deterministic diagonally dominant SPD test matrix (1-D Laplacian plus
/// a strong diagonal shift).
fn laplacian(n: usize) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 4.0).unwrap();
        if i + 1 < n {
            coo.push(i, i + 1, -1.0).unwrap();
            coo.push(i + 1, i, -1.0).unwrap();
        }
    }
    coo.to_csr()
}

/// Runs one solve and returns the allocation calls it made. The counters
/// are per thread, so sibling tests running in parallel cannot leak into
/// the measured window.
fn alloc_delta<Op, P>(
    op: &Op,
    precond: &P,
    b: &[f64],
    cfg: &GmresConfig,
    ws: &mut KrylovWorkspace,
) -> u64
where
    Op: LinearOperator + ?Sized,
    P: Preconditioner<Op> + ?Sized,
{
    let x0 = vec![0.0; b.len()];
    let (res, delta) = alloc::measure(|| fgmres_on(&OneRank(op), precond, b, &x0, cfg, ws));
    let res = res.expect("one rank");
    assert!(res.x.iter().all(|v| v.is_finite()));
    delta.count
}

#[test]
fn warm_workspace_alloc_count_is_independent_of_iteration_count() {
    assert!(alloc::is_counting(), "counting allocator not installed");
    let n = 64;
    let a = laplacian(n);
    let b = vec![1.0; n];

    // tol = 0 forces the solver to run out the full iteration budget, so
    // the two runs below differ only in how many iterations execute.
    let short = GmresConfig {
        restart: 10,
        max_iters: 5,
        tol: 0.0,
        ..Default::default()
    };
    let long = GmresConfig {
        max_iters: 80,
        ..short
    };

    let mut ws = KrylovWorkspace::new();
    // Warm-up: sizes the basis, Hessenberg, and residual buffers.
    alloc_delta(&a, &IdentityPrecond, &b, &long, &mut ws);

    let d_short = alloc_delta(&a, &IdentityPrecond, &b, &short, &mut ws);
    let d_long = alloc_delta(&a, &IdentityPrecond, &b, &long, &mut ws);
    assert_eq!(
        d_short, d_long,
        "iteration loop allocated: 5 iters cost {d_short} calls, 80 iters cost {d_long}"
    );
}

#[test]
fn warm_workspace_alloc_count_is_iteration_free_with_polynomial_precond() {
    assert!(alloc::is_counting(), "counting allocator not installed");
    let n = 48;
    let a = laplacian(n);
    let f = vec![1.0; n];
    // GLS preconditioning assumes the system is scaled into (0, 1).
    let (scaled, b, _) = scaling::scale_system(&a, &f).unwrap();
    let gls = GlsPrecond::for_scaled_system(7);

    let short = GmresConfig {
        restart: 8,
        max_iters: 4,
        tol: 0.0,
        ..Default::default()
    };
    let long = GmresConfig {
        max_iters: 64,
        ..short
    };

    let mut ws = KrylovWorkspace::new();
    alloc_delta(&scaled, &gls, &b, &long, &mut ws);

    let d_short = alloc_delta(&scaled, &gls, &b, &short, &mut ws);
    let d_long = alloc_delta(&scaled, &gls, &b, &long, &mut ws);
    assert_eq!(
        d_short, d_long,
        "preconditioned loop allocated: 4 iters cost {d_short} calls, 64 iters cost {d_long}"
    );
}

/// A warm recycling window: on a fixed-operator workspace the second solve
/// forms the recycled pair and the third reuses it, and neither allocates
/// per iteration or per restart.
#[test]
fn warm_recycling_window_is_iteration_free() {
    assert!(alloc::is_counting(), "counting allocator not installed");
    let n = 64;
    let a = laplacian(n);
    let b = vec![1.0; n];
    let long = GmresConfig {
        restart: 8,
        max_iters: 80,
        tol: 1e-10,
        ..Default::default()
    };
    // Past one recycled restart, but short of convergence.
    let short = GmresConfig {
        max_iters: 12,
        ..long
    };

    let mut ws = KrylovWorkspace::for_fixed_operator();
    // Warm-up: restarts, so its last cycle leaves a deflated head.
    alloc_delta(&a, &IdentityPrecond, &b, &long, &mut ws);

    let d_short = alloc_delta(&a, &IdentityPrecond, &b, &short, &mut ws);
    let d_long = alloc_delta(&a, &IdentityPrecond, &b, &long, &mut ws);
    assert_eq!(
        d_short, d_long,
        "recycled solves allocated in the loop: 12 iters cost {d_short} calls, \
         a converged solve {d_long}"
    );
}

#[test]
fn every_kernel_variant_is_iteration_free() {
    assert!(alloc::is_counting(), "counting allocator not installed");
    let n = 66; // 2 · 33 = 3 · 22, so both block formats are admissible
    let a = laplacian(n);
    let b = vec![1.0; n];

    // Building the block format allocates; once built, the iteration loop
    // over any of the three storages must not.
    let blocks2 = BcsrMatrix::from_csr(&a, 2).expect("66 is a multiple of 2");
    let blocks3 = BcsrMatrix::from_csr(&a, 3).expect("66 is a multiple of 3");
    let operators: [(&str, &dyn LinearOperator); 3] =
        [("csr", &a), ("bcsr2", &blocks2), ("bcsr3", &blocks3)];
    for (label, op) in operators {
        let short = GmresConfig {
            restart: 10,
            max_iters: 5,
            tol: 0.0,
            ..Default::default()
        };
        let long = GmresConfig {
            max_iters: 80,
            ..short
        };

        let mut ws = KrylovWorkspace::new();
        alloc_delta(op, &IdentityPrecond, &b, &long, &mut ws);

        let d_short = alloc_delta(op, &IdentityPrecond, &b, &short, &mut ws);
        let d_long = alloc_delta(op, &IdentityPrecond, &b, &long, &mut ws);
        assert_eq!(
            d_short, d_long,
            "{label} allocated in the loop: 5 iters cost {d_short} calls, 80 iters cost {d_long}"
        );
    }
}

/// The exact subdomain solve is part of the loop under `direct`: once the
/// factor is built, an application (permute, two triangular sweeps, permute
/// back, through the preallocated scratch) must not allocate.
#[test]
fn direct_precond_apply_is_allocation_free() {
    assert!(alloc::is_counting(), "counting allocator not installed");
    let n = 64;
    let a = laplacian(n);
    let direct = DirectPrecond::new(&a);
    let v = vec![1.0; n];
    let mut z = vec![0.0; n];
    let ((), delta) = alloc::measure(|| {
        for _ in 0..8 {
            direct.apply_into(&a, &v, &mut z);
        }
    });
    assert_eq!(delta.count, 0, "direct apply allocated {delta:?}");
    let az = a.spmv(&z);
    assert!(az.iter().all(|r| (r - 1.0).abs() < 1e-12));
}
