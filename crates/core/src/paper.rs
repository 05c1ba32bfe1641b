//! # Paper → code map
//!
//! Where every construct of Liang, Kanapady & Tamma, *"An Efficient
//! Parallel Finite-Element-Based Domain Decomposition Iterative Technique
//! With Polynomial Preconditioning"* (UMN TR 05-001 / ICPP 2006), lives in
//! this workspace. This module contains no code — it is the
//! reproduction's index, kept in rustdoc so it stays next to the items it
//! references.
//!
//! ## Section 2 — preconditioned iterative solvers
//!
//! | Paper | Code |
//! |---|---|
//! | Eq. 1 `K u = f`, FEM assembly | [`parfem_fem::assembly`] |
//! | Theorem 1 (Gershgorin row-sum bound) | [`parfem_sparse::gershgorin`] |
//! | Eqs. 9–12, norm-1 diagonal scaling | [`parfem_sparse::scaling`] |
//! | Sec. 2.1.2, Neumann series `P_m = ω Σ Gᵏ` | [`parfem_precond::NeumannPrecond`] |
//! | Sec. 2.1.3, GLS polynomial on interval unions (Eqs. 18–22) | [`parfem_precond::GlsPrecond`] |
//! | Eq. 24, floating-point stability bound (Fig. 3) | [`parfem_precond::poly::stability_bound`] |
//! | Sec. 2.3 / Algorithm 1, flexible GMRES with restart | [`parfem_krylov::fgmres`] (the one loop [`parfem_krylov::fgmres_on`] on one rank) |
//! | "different preconditioners at required stages" | [`parfem_precond::EscalatingGls`] |
//!
//! ## Section 3 — element-based domain decomposition
//!
//! | Paper | Code |
//! |---|---|
//! | Definitions 1–2, local/global distributed formats | [`parfem_dd::dist_vec`] |
//! | Eq. 28, nearest-neighbour interface sum `⊕Σ` | [`parfem_dd::EddLayout::interface_sum_buffered`] |
//! | Eqs. 29–31, 1-D truss illustration (Fig. 5) | [`parfem_fem::truss`] |
//! | Eq. 32, `K = Σ Bᵀ K̂ B` unassembled subdomains | [`parfem_fem::SubdomainSystem`] |
//! | Eqs. 33–35, deduplicated inner products | [`parfem_dd::EddLayout::dot_partial`] |
//! | Eqs. 36–37, local matvec | [`parfem_dd::EddOperator`] |
//! | Algorithms 3–4, distributed diagonal scaling | [`parfem_dd::scaling`] |
//! | Algorithm 5 (3 exchanges/step) | [`parfem_dd::EddVariant::Basic`] |
//! | Algorithm 6 (1 exchange/step) | [`parfem_dd::EddVariant::Enhanced`] |
//! | Algorithm 7, EDD polynomial preconditioning | any [`parfem_precond::Preconditioner`] over [`parfem_dd::EddOperator`] |
//! | Eq. 45, floating-subdomain ILU singularity | `ilu0_fails_with_zero_pivot_on_single_floating_element` test; [`parfem_sparse::SparseError::ZeroPivot`] |
//!
//! ## Section 4 — row-based decomposition (baseline)
//!
//! | Paper | Code |
//! |---|---|
//! | Eqs. 46–49 block-row partition | [`parfem_dd::RddSystem`] |
//! | Eq. 48 halo matvec | [`parfem_dd::RddOperator`] |
//! | Algorithm 8, RDD FGMRES | [`parfem_dd::rdd_fgmres`] |
//! | block-Jacobi / additive-Schwarz local solves | [`parfem_dd::RddLocalIlu`], [`parfem_precond::BlockJacobiPrecond`] |
//!
//! ## Section 5 — complexity and planarity
//!
//! | Paper | Code |
//! |---|---|
//! | Table 1 comm counts (measured, not hand-counted) | `table1_comm_counts` binary; [`parfem_msg::CommStats`] |
//! | planar `G(K)` for triangles | [`parfem_mesh::graph::Adjacency::satisfies_planar_edge_bound`] |
//! | 4-/8-noded quadrilateral densification | [`parfem_fem::quad8s`], `ablation_elements*` binaries |
//!
//! ## Section 6 — numerical results
//!
//! | Paper | Code |
//! |---|---|
//! | Eq. 50 static / Eqs. 51–52 dynamics | [`crate::problems`], [`parfem_fem::dynamics`], [`parfem_dd::SolveSession::run_dynamic`] |
//! | Table 2 meshes | [`crate::problems::PAPER_MESHES`] |
//! | Figs. 10–14 convergence studies | [`crate::sequential`], `fig10`–`fig14` binaries |
//! | Figs. 15–17 / Table 3 speedups | [`parfem_dd::SolveSession`] (EDD/RDD strategies) on [`parfem_msg::MachineModel`]; `fig16`/`fig17`/`table3` binaries |
//!
//! The per-experiment parameters live in `DESIGN.md`; measured-vs-paper
//! numbers in `EXPERIMENTS.md`.
