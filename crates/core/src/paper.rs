//! # Paper → code map
//!
//! Where every construct of Liang, Kanapady & Tamma, *"An Efficient
//! Parallel Finite-Element-Based Domain Decomposition Iterative Technique
//! With Polynomial Preconditioning"* (UMN TR 05-001 / ICPP 2006), lives in
//! this workspace. This module contains no code — it is the
//! reproduction's index, kept in rustdoc so it stays next to the items it
//! references. "Row `id`" names the row of the experiment table
//! (`parfem_bench::repro::EXPERIMENTS`, run by `repro <id>` and tested at
//! the quick tier) that asserts the paper's claim.
//!
//! ## Section 2 — preconditioned iterative solvers
//!
//! | Paper | Code |
//! |---|---|
//! | Eq. 1 `K u = f`, FEM assembly | [`parfem_fem::assembly`] over one [`parfem_fem::Discretization`] (mesh × physics) |
//! | Theorem 1 (Gershgorin row-sum bound), `σ(DKD) ⊂ (0, 1]` | [`parfem_sparse::scaling`]; the measured spectrum of Fig. 10 is [`parfem_krylov::measure_spectrum`]; row `fig10` |
//! | Eqs. 9–12, norm-1 diagonal scaling | [`parfem_sparse::scaling`] |
//! | Sec. 2.1.2, Neumann series `P_m = ω Σ Gᵏ` (Fig. 1) | [`parfem_precond::NeumannPrecond`]; row `fig01` |
//! | Sec. 2.1.3, GLS polynomial on interval unions (Eqs. 18–22, Fig. 2) | [`parfem_precond::GlsPrecond`]; rows `fig02`, `ablation-polynomials` (GLS beats Neumann and Chebyshev at equal degree) |
//! | Eq. 24, floating-point stability bound (Fig. 3) | [`parfem_precond::poly::stability_bound`]; row `fig03` |
//! | Sec. 2.3 / Algorithm 1, flexible GMRES with restart | [`parfem_krylov::fgmres`] (the one loop [`parfem_krylov::fgmres_on`] on one rank; restarts deflated, FGMRES-DR(m̃, m̃/4)); rows `ablation-restart` (m̃ = 25), `ablation-orthogonalization` (classical Gram–Schmidt) |
//! | "different preconditioners at required stages" | [`parfem_precond::EscalatingGls`] |
//!
//! ## Section 3 — element-based domain decomposition
//!
//! | Paper | Code |
//! |---|---|
//! | Definitions 1–2, local/global distributed formats | [`parfem_dd::dist_vec`] |
//! | Eq. 28, nearest-neighbour interface sum `⊕Σ` | [`parfem_dd::EddLayout::interface_sum_buffered`] |
//! | Eqs. 29–31, 1-D truss illustration (Fig. 5) | [`parfem_dd::dist_vec`] |
//! | Eq. 32, `K = Σ Bᵀ K̂ B` unassembled subdomains | [`parfem_fem::SubdomainSystem`] |
//! | Eqs. 33–35, deduplicated inner products | [`parfem_dd::EddLayout::dot_partial`] |
//! | Eqs. 36–37, local matvec | [`parfem_dd::EddOperator`] |
//! | Algorithms 3–4, distributed diagonal scaling | [`parfem_dd::scaling`] |
//! | Algorithm 5 (3 exchanges/step) | [`parfem_dd::EddVariant::Basic`]; row `table1` |
//! | Algorithm 6 (1 exchange/step) | [`parfem_dd::EddVariant::Enhanced`]; row `table1` |
//! | Algorithm 7, EDD polynomial preconditioning | any [`parfem_precond::Preconditioner`] over [`parfem_dd::EddOperator`] |
//! | Eq. 45, floating-subdomain ILU singularity | [`parfem_precond::PrecondSpec::Ilu0`] under [`parfem_dd::Strategy::Edd`] at P ≥ 2 → [`parfem_dd::SolveError::Precond`] ([`parfem_sparse::SparseError::ZeroPivot`]); `ilu0_fails_with_zero_pivot_on_single_floating_element` test |
//!
//! ## Section 4 — row-based decomposition (baseline)
//!
//! | Paper | Code |
//! |---|---|
//! | Eqs. 46–49 block-row partition | [`parfem_dd::RddSystem`] |
//! | Eq. 48 halo matvec | [`parfem_dd::RddOperator`] |
//! | Algorithm 8, RDD FGMRES | [`parfem_krylov::fgmres_on`] over [`parfem_dd::RddOperator`] |
//! | block-Jacobi / additive-Schwarz local solves (ILU(0) per block row) | [`parfem_precond::PrecondSpec::Ilu0`] under [`parfem_dd::Strategy::Rdd`]; row `ablation-polynomials` |
//!
//! ## Section 5 — complexity and planarity
//!
//! | Paper | Code |
//! |---|---|
//! | Table 1 comm counts (measured, not hand-counted) | [`parfem_msg::CommStats`]; row `table1` |
//! | planar `G(K)` for triangles | [`parfem_mesh::graph::Adjacency::satisfies_planar_edge_bound`]; row `ablation-elements` |
//! | T3 / Q4 / Q8 element families through both strategies | [`parfem_fem::Discretization`] ([`parfem_fem::tri3`], [`parfem_fem::quad4`], [`parfem_fem::quad8s`]) in a [`parfem_dd::Problem`]; row `ablation-elements-parallel` runs both columns through [`parfem_dd::SolveSession`] |
//! | 4-/8-noded quadrilateral densification | [`parfem_fem::quad8s`]; rows `ablation-elements`, `ablation-elements-parallel` |
//!
//! ## Section 6 — numerical results
//!
//! | Paper | Code |
//! |---|---|
//! | Eq. 50 static / Eqs. 51–52 dynamics | [`crate::problems`], [`parfem_fem::dynamics`], [`parfem_dd::SolveSession::run_dynamic`] (the session engine's rank body, EDD or RDD, lumped mass on Q4, T3 and hex8) |
//! | Table 2 meshes | [`crate::problems::PAPER_MESHES`]; row `table2` |
//! | Figs. 10–14 convergence studies | [`crate::sequential`] over [`parfem_precond::PrecondSpec`] (ILU(0) is `ilu0`; Fig. 10's Θ is `Gls { theta }`), [`crate::dynamic::first_step_system`] for Figs. 12/14; rows `fig10`–`fig14` |
//! | Figs. 15–17 / Table 3 speedups | [`parfem_dd::SolveSession`] (EDD/RDD strategies; `run_dynamic` for Fig. 16) on [`parfem_msg::MachineModel`]; rows `fig16`, `fig17`, `table3`, `ablation-machine` (the SP2/Origin gap is latency) |
//!
//! The per-experiment parameters live in `DESIGN.md`; measured-vs-paper
//! numbers in `EXPERIMENTS.md`.
