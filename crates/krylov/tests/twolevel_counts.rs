//! Golden iteration counts for two-level FGMRES: every (system, part
//! count, coarse space, smoother) cell is pinned, so a silent convergence
//! regression — in the coarse construction, the Galerkin assembly, the
//! coarse solve, or the composition — fails loudly.
//!
//! The systems are sequential analogues of the paper's meshes: 2-D 5-point
//! Laplacians cut into hand-built strip partitions (the krylov crate sits
//! below the mesh layer, so partitions are described directly as
//! [`CoarsePartGeometry`]). Alongside the pins, the structural claim the
//! tentpole makes is asserted cell by cell: adding the coarse level never
//! increases the iteration count of its one-level smoother.

use parfem_krylov::gmres::{fgmres, GmresConfig};
use parfem_precond::twolevel::build_coarse_basis;
use parfem_precond::{CoarsePartGeometry, PrecondSpec};
use parfem_sparse::ldlt::DEFAULT_PIVOT_TOL;
use parfem_sparse::{dense, scaling, CooMatrix, CsrMatrix};

/// 2-D 5-point Laplacian on `nx × ny`, with a smooth non-constant load,
/// in scaled form.
fn scaled_laplacian_2d(nx: usize, ny: usize) -> (CsrMatrix, Vec<f64>, Vec<f64>) {
    let n = nx * ny;
    let idx = |i: usize, j: usize| i * ny + j;
    let mut coo = CooMatrix::new(n, n);
    for i in 0..nx {
        for j in 0..ny {
            let r = idx(i, j);
            coo.push(r, r, 4.0).unwrap();
            if i + 1 < nx {
                coo.push(r, idx(i + 1, j), -1.0).unwrap();
                coo.push(idx(i + 1, j), r, -1.0).unwrap();
            }
            if j + 1 < ny {
                coo.push(r, idx(i, j + 1), -1.0).unwrap();
                coo.push(idx(i, j + 1), r, -1.0).unwrap();
            }
        }
    }
    let a = coo.to_csr();
    let f: Vec<f64> = (0..n).map(|k| 1.0 + (k as f64 * 0.37).sin()).collect();
    let (scaled, b, sc) = scaling::scale_system(&a, &f).unwrap();
    (scaled, b, sc.diagonal().to_vec())
}

/// Cuts the `nx × ny` grid into `p` contiguous column strips — a scalar
/// "subdomain" partition described directly in coarse-geometry terms.
fn strip_parts(nx: usize, ny: usize, p: usize) -> Vec<CoarsePartGeometry> {
    (0..p)
        .map(|q| {
            let lo = q * nx / p;
            let hi = (q + 1) * nx / p;
            let mut geo = CoarsePartGeometry::default();
            for i in lo..hi {
                for j in 0..ny {
                    geo.dofs.push(i * ny + j);
                    geo.pos.push([i as f64, j as f64, 0.0]);
                    geo.comp.push(0);
                    geo.constrained.push(false);
                }
            }
            geo
        })
        .collect()
}

/// Solves the scaled system through the registry path (spec string →
/// [`PrecondSpec`] → `instantiate`) and returns the converged
/// iteration count.
fn iterations(scaled: &CsrMatrix, b: &[f64], d: &[f64], p: usize, spec_str: &str) -> usize {
    let spec = PrecondSpec::parse(spec_str).expect("test spec parses");
    let coarse = matches!(spec, PrecondSpec::TwoLevel { .. }).then(|| {
        let coarse_spec = match &spec {
            PrecondSpec::TwoLevel { coarse, .. } => coarse.clone(),
            _ => unreachable!(),
        };
        let parts = strip_parts(scaled.n_rows() / GRID_NY, GRID_NY, p);
        let ones = vec![1.0; scaled.n_rows()];
        build_coarse_basis(&coarse_spec, &parts, &ones, d, scaled, DEFAULT_PIVOT_TOL).solver(None)
    });
    let pc = spec
        .instantiate(coarse, Some(scaled), || scaled.diagonal())
        .expect("polynomial smoother");
    let cfg = GmresConfig {
        restart: 30,
        max_iters: 400,
        tol: 1e-10,
        ..Default::default()
    };
    let x0 = vec![0.0; b.len()];
    let res = fgmres(scaled, &pc, b, &x0, &cfg);
    assert!(
        res.history.converged(),
        "{spec_str} (P={p}) did not converge: {:?}",
        res.history.stop
    );
    // The delivered solution must actually meet tolerance on the true
    // residual, not just the Arnoldi estimate.
    let mut r = scaled.spmv(&res.x);
    for (ri, bi) in r.iter_mut().zip(b) {
        *ri -= bi;
    }
    assert!(
        dense::norm2(&r) / dense::norm2(b) <= 1e-9,
        "{spec_str} (P={p}): true residual too large"
    );
    res.history.iterations()
}

const GRID_NX: usize = 24;
const GRID_NY: usize = 16;

/// The golden table: `(P, two-level spec, its one-level smoother, pinned
/// two-level count)`. Counts were recorded from the implementation under
/// test and pin its convergence behaviour exactly.
const GOLDEN: &[(usize, &str, &str, usize)] = &[
    (4, "twolevel:const:gls-3", "gls:3", 22),
    // 45 under plain restarting: the only cell that restarts at m = 30.
    (4, "twolevel:const:neumann-2", "neumann:2", 42),
    (4, "twolevel:lowrank-2:gls-3", "gls:3", 18),
    (8, "twolevel:const:gls-3", "gls:3", 21),
    (8, "twolevel:const:gls-3:add", "gls:3", 27),
    (8, "twolevel:lowrank-4:neumann-2", "neumann:2", 20),
    (12, "twolevel:const:gls-3", "gls:3", 21),
    (12, "twolevel:rbm:gls-3", "gls:3", 21),
    (8, "twolevel:const.s1:gls-3", "gls:3", 20),
    (12, "twolevel:rbm.s2:gls-3", "gls:3", 19),
];

#[test]
fn twolevel_iteration_counts_match_goldens_and_never_exceed_one_level() {
    let (scaled, b, d) = scaled_laplacian_2d(GRID_NX, GRID_NY);
    let mut failures = Vec::new();
    for &(p, two_spec, one_spec, golden) in GOLDEN {
        let two = iterations(&scaled, &b, &d, p, two_spec);
        let one = iterations(&scaled, &b, &d, p, one_spec);
        if two != golden {
            failures.push(format!("{two_spec} (P={p}): got {two}, golden {golden}"));
        }
        // The non-increase contract is for the default (multiplicative)
        // composition; additive trades one operator application per apply
        // for a weaker correction and may cost a few extra iterations.
        if !two_spec.ends_with(":add") && two > one {
            failures.push(format!(
                "{two_spec} (P={p}): {two} iterations exceeds one-level {one_spec} ({one})"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "golden drift:\n{}",
        failures.join("\n")
    );
}

/// The coarse level is what keeps counts flat as the partition refines:
/// one-level counts are P-independent here only because the operator is
/// fixed, but the two-level counts must not *grow* with P either — more
/// parts mean a richer coarse space.
#[test]
fn twolevel_counts_do_not_grow_with_part_count() {
    let (scaled, b, d) = scaled_laplacian_2d(GRID_NX, GRID_NY);
    let counts: Vec<usize> = [2, 4, 8, 12]
        .iter()
        .map(|&p| iterations(&scaled, &b, &d, p, "twolevel:const:gls-3"))
        .collect();
    for w in counts.windows(2) {
        assert!(w[1] <= w[0] + 1, "two-level counts grew with P: {counts:?}");
    }
}
