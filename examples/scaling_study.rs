//! Parallel scaling study: EDD vs RDD FGMRES with GLS preconditioning on
//! the virtual IBM SP2 and SGI Origin machines, P = 1..8 — a compact
//! version of the paper's Figs. 15–17.
//!
//! Run with: `cargo run --release --example scaling_study`

use parfem::prelude::*;

fn main() {
    let problem = CantileverProblem::new(64, 32, Material::unit(), LoadCase::PullX(1.0));
    println!(
        "cantilever {} equations; FGMRES-gls(7), tol 1e-6, restart 25\n",
        problem.n_eqn()
    );
    let cfg = SolverConfig::default();

    for model in [MachineModel::ibm_sp2(), MachineModel::sgi_origin()] {
        println!("== {} ==", model.name);
        println!(
            "{:>4} {:>14} {:>14} {:>10} {:>10}",
            "P", "EDD time (s)", "RDD time (s)", "EDD S(P)", "RDD S(P)"
        );
        let mut edd_t1 = 0.0;
        let mut rdd_t1 = 0.0;
        for p in [1usize, 2, 4, 8] {
            let epart = ElementPartition::strips_x(&problem.mesh, p);
            let npart = NodePartition::from_elements(&epart, &problem.mesh).unwrap();
            let edd = SolveSession::new(problem.as_problem())
                .strategy(Strategy::Edd(epart))
                .config(cfg.clone())
                .machine(model.clone())
                .run()
                .expect("fault-free solve");
            let rdd = SolveSession::new(problem.as_problem())
                .strategy(Strategy::Rdd(npart))
                .config(cfg.clone())
                .machine(model.clone())
                .run()
                .expect("fault-free solve");
            assert!(edd.history.converged() && rdd.history.converged());
            if p == 1 {
                edd_t1 = edd.modeled_time;
                rdd_t1 = rdd.modeled_time;
            }
            println!(
                "{:>4} {:>14.4} {:>14.4} {:>10.2} {:>10.2}",
                p,
                edd.modeled_time,
                rdd.modeled_time,
                edd_t1 / edd.modeled_time,
                rdd_t1 / rdd.modeled_time
            );
        }
        println!();
    }
    println!("note: times are virtual (LogP-style machine model) — this host has too few");
    println!("cores for wall-clock speedup; see DESIGN.md for the substitution rationale.");
}
