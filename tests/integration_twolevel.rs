//! Paper-mesh contract for the two-level preconditioner: on the
//! cantilever family of Table 2, adding the coarse level to a polynomial
//! smoother never increases the FGMRES iteration count, under both
//! distributed strategies.
//!
//! The small meshes run unconditionally; set `PARFEM_FULL=1` to sweep the
//! whole Table 2 family (minutes, release build recommended).

use parfem::prelude::*;

/// Paper meshes to sweep: the first three by default, all ten under
/// `PARFEM_FULL=1`.
fn mesh_indices() -> Vec<usize> {
    if std::env::var_os("PARFEM_FULL").is_some() {
        (1..=PAPER_MESHES.len()).collect()
    } else {
        vec![1, 2, 3]
    }
}

fn iterations(p: &CantileverProblem, strategy: Strategy, spec: &str) -> usize {
    let out = SolveSession::new(p.as_problem())
        .strategy(strategy)
        .precond(PrecondSpec::parse(spec).expect("spec parses"))
        .gmres(GmresConfig {
            tol: 1e-8,
            max_iters: 20_000,
            ..Default::default()
        })
        .run()
        .expect("fault-free solve");
    assert!(out.history.converged(), "{spec} did not converge");
    out.history.iterations()
}

/// EDD: `twolevel:rbm:gls-3` takes no more iterations than `gls:3` on
/// every swept paper mesh.
#[test]
fn twolevel_counts_non_increasing_on_paper_meshes_edd() {
    for k in mesh_indices() {
        let p = CantileverProblem::paper_mesh(k);
        let parts = 4.min(p.mesh.nx());
        let strategy = || Strategy::Edd(ElementPartition::strips_x(&p.mesh, parts));
        let one = iterations(&p, strategy(), "gls:3");
        let two = iterations(&p, strategy(), "twolevel:rbm:gls-3");
        assert!(
            two <= one,
            "mesh {k} ({}x{}): two-level {two} > one-level {one}",
            p.mesh.nx(),
            p.mesh.ny()
        );
    }
}

/// RDD: same contract on the block-row strategy.
#[test]
fn twolevel_counts_non_increasing_on_paper_meshes_rdd() {
    for k in mesh_indices() {
        let p = CantileverProblem::paper_mesh(k);
        let parts = 4.min(p.mesh.nx());
        let strips = ElementPartition::strips_x(&p.mesh, parts);
        let nodes = NodePartition::from_elements(&strips, &p.mesh).unwrap();
        let strategy = || Strategy::Rdd(nodes.clone());
        let one = iterations(&p, strategy(), "gls:3");
        let two = iterations(&p, strategy(), "twolevel:rbm:gls-3");
        assert!(
            two <= one,
            "mesh {k} ({}x{}): RDD two-level {two} > one-level {one}",
            p.mesh.nx(),
            p.mesh.ny()
        );
    }
}
