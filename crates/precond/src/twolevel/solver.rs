//! The coarse solver: the runtime correction on the built modes and its
//! composition with a smoother.

use super::ModeSet;
use crate::registry::BuiltPrecond;
use crate::{InterfaceConsistency, Preconditioner};
use parfem_sparse::{CsrMatrix, LinearOperator, SparseLdlt};
use std::sync::{Arc, Mutex};

/// The cross-rank hook the coarse solve needs from an operator: summing the
/// per-rank partial restriction into the (replicated) global coarse
/// right-hand side.
///
/// Sequential operators are already coherent — [`CsrMatrix`]'s impl is a
/// no-op. Distributed operators implement this with the same deterministic
/// tree `allreduce` their dot products use, so the reduced vector is
/// bit-identical on every rank and the redundant coarse solves stay in
/// lock step.
pub trait CoarseReduce {
    /// Sums `buf` element-wise across all ranks, leaving the identical
    /// total on every rank. No-op for sequential operators.
    fn coarse_reduce(&self, buf: &mut [f64]);

    /// Accounts `flops` of purely local coarse-solve work to the
    /// operator's virtual-time model. No-op by default.
    fn coarse_work(&self, flops: u64) {
        let _ = flops;
    }
}

impl CoarseReduce for CsrMatrix {
    fn coarse_reduce(&self, _buf: &mut [f64]) {}
}

/// The runtime coarse correction `z (+)= Ẑ A_c⁻¹ Ẑᵀ v` of one rank (or of
/// the whole problem, sequentially).
///
/// Restriction and prolongation sweep the holder's [`ModeSet`] as built; the
/// shared (`Arc`) factored coarse operator is solved redundantly on every
/// rank after the deterministic [`CoarseReduce::coarse_reduce`], so interface
/// values agree bit for bit without a second communication round. Buffers
/// are preallocated (behind an uncontended `Mutex`: application takes `&self`).
#[derive(Debug)]
pub struct CoarseSolver {
    modes: ModeSet,
    /// Restriction weight per row (the consumer's partition of unity, e.g.
    /// `1/mult` on element partitions): `y[m] += fl(ẑ_m[r] · w[r]) · v[r]`.
    weights: Option<Vec<f64>>,
    /// Stored entries: the lists' and the panel's non-zero ones.
    nnz: usize,
    factor: Arc<SparseLdlt>,
    /// The coarse vector `y` and the solve scratch, `n_modes` each, then a
    /// slot per panel column.
    y: Mutex<Vec<f64>>,
}

impl CoarseSolver {
    /// Builds a solver from a holder's modes (ascending by id, the panel
    /// over its rows), restriction weights and the shared factorization.
    pub fn new(
        n_modes: usize,
        modes: ModeSet,
        weights: Option<Vec<f64>>,
        factor: Arc<SparseLdlt>,
    ) -> Self {
        assert_eq!(factor.dim(), n_modes, "coarse factor dimension");
        let nnz = (modes.panel.z.iter().filter(|&&v| v != 0.0).count())
            + modes.modes.iter().map(|m| m.z.len()).sum::<usize>();
        CoarseSolver {
            y: Mutex::new(vec![0.0; 2 * n_modes + modes.panel.width]),
            modes,
            weights,
            nnz,
            factor,
        }
    }

    /// Modes the coarse factorization pivoted out (rank-deficient blocks).
    pub fn skipped_modes(&self) -> &[usize] {
        self.factor.skipped_modes()
    }

    /// The modes restriction and prolongation both read.
    pub fn modes(&self) -> &ModeSet {
        &self.modes
    }

    /// Local flops of one application, for the virtual-time model: a
    /// multiply and an add per stored entry each way, and the solve.
    pub fn flops(&self) -> u64 {
        4 * self.nnz as u64 + self.factor.solve_flops()
    }

    /// `z = Ẑ A_c⁻¹ Ẑᵀ v`, overwriting `z`.
    ///
    /// Restriction: one row-major pass over the panel into `columns`, one
    /// pass per list mode, each `y[m]` summed in ascending row. Prolongation:
    /// each row's terms in ascending mode id, a pass per list mode or run of
    /// id-consecutive columns. Every row starts at `+0`, and a sum started
    /// at `+0` is never `−0`, so a panel zero's signed-zero term moves no row.
    pub fn apply<Op: CoarseReduce + ?Sized>(&self, op: &Op, v: &[f64], z: &mut [f64]) {
        let (modes, panel) = (&self.modes.modes, &self.modes.panel);
        let weight = |r: usize| self.weights.as_ref().map_or(1.0, |w| w[r]);
        let mut buffers = self.y.lock().expect("coarse scratch lock");
        let (y, rest) = buffers.split_at_mut(self.factor.dim());
        let (scratch, columns) = rest.split_at_mut(y.len());
        columns.fill(0.0);
        for (r, (zr, &vr)) in panel.rows().zip(v).enumerate() {
            let wr = weight(r);
            for (sum, &zc) in columns.iter_mut().zip(zr) {
                *sum += zc * wr * vr;
            }
        }
        y.fill(0.0);
        for mode in modes {
            y[mode.id] = match mode.column {
                Some(c) => columns[c],
                None => (mode.z.iter()).fold(0.0, |acc, &(r, zr)| acc + zr * weight(r) * v[r]),
            };
        }
        op.coarse_reduce(y);
        self.factor.solve_in_place_with(y, scratch);
        z.fill(0.0);
        for run in modes.chunk_by(|a, b| a.column.is_some_and(|c| b.column == Some(c + 1))) {
            let Some(first) = run[0].column else {
                (run[0].z.iter()).for_each(|&(r, zr)| z[r] += zr * y[run[0].id]);
                continue;
            };
            let ys = &mut columns[first..first + run.len()];
            ys.iter_mut().zip(run).for_each(|(yc, m)| *yc = y[m.id]);
            for (zr, zi) in panel.rows().zip(z.iter_mut()) {
                for (&zc, &yc) in zr[first..].iter().zip(&*ys) {
                    *zi += zc * yc;
                }
            }
        }
        op.coarse_work(self.flops());
    }
}

/// A two-level preconditioner: a [`CoarseSolver`] composed with a smoother
/// `S` (any existing [`Preconditioner`]).
///
/// Works over any operator that is both a [`LinearOperator`] (the
/// multiplicative residual needs `A z_c`) and [`CoarseReduce`] (the coarse
/// right-hand side needs the cross-rank sum) — which covers the sequential
/// CSR operator and both distributed operators.
pub struct TwoLevelPrecond<S> {
    smoother: S,
    coarse: CoarseSolver,
    label: String,
}

impl<S> TwoLevelPrecond<S> {
    /// Composes `smoother` with `coarse`. `label` becomes the
    /// [`Preconditioner::name`], conventionally the registry spec string.
    pub fn new(smoother: S, coarse: CoarseSolver, label: String) -> Self {
        TwoLevelPrecond {
            smoother,
            coarse,
            label,
        }
    }
}

impl<Op, S> Preconditioner<Op> for TwoLevelPrecond<S>
where
    Op: LinearOperator + CoarseReduce + ?Sized,
    S: Preconditioner<Op>,
{
    fn apply_into(&self, op: &Op, v: &[f64], z: &mut [f64]) {
        // Route through the scratch path with freshly allocated scratch so
        // the two entry points are bit-identical by construction.
        let mut scratch = vec![vec![0.0; v.len()]; Preconditioner::<Op>::scratch_vectors(self)];
        self.apply_scratch(op, v, z, &mut scratch);
    }

    fn scratch_vectors(&self) -> usize {
        self.smoother.scratch_vectors() + 2
    }

    fn apply_scratch(&self, op: &Op, v: &[f64], z: &mut [f64], scratch: &mut [Vec<f64>]) {
        let (ours, sm_scratch) = scratch.split_at_mut(2);
        let (r_slot, s_slot) = ours.split_at_mut(1);
        let r = &mut r_slot[0];
        let s = &mut s_slot[0];
        // z_c = coarse(v); r = v − A z_c; z = z_c + M_s r.
        self.coarse.apply(op, v, z);
        op.apply_into(z, r);
        for i in 0..r.len() {
            r[i] = v[i] - r[i];
        }
        self.smoother.apply_scratch(op, r, s, sm_scratch);
        for i in 0..z.len() {
            z[i] += s[i];
        }
    }

    fn operator_applications(&self) -> usize {
        self.smoother.operator_applications() + 1
    }

    fn current_operator_applications(&self) -> usize {
        self.smoother.current_operator_applications() + 1
    }

    fn name(&self) -> String {
        self.label.clone()
    }
}

/// A registry-built preconditioner covering both one-level and two-level
/// specs, as one concrete value.
///
/// Like [`BuiltPrecond`] it names no operator type, so one instance serves
/// a loop of solves whose operator borrows differ per iteration; unlike
/// [`BuiltPrecond`] its [`Preconditioner`] impl requires
/// [`CoarseReduce`] of the operator (trivially satisfied sequentially,
/// implemented by both distributed operators).
pub enum SpecPrecond {
    /// A one-level spec — delegates method-for-method to [`BuiltPrecond`],
    /// so results are bit-identical to the historical path.
    Plain(BuiltPrecond),
    /// A two-level spec with its coarse solver attached.
    TwoLevel(TwoLevelPrecond<BuiltPrecond>),
}

impl SpecPrecond {
    /// The subdomain factorization a `direct` spec holds, standalone or as
    /// the smoother of a two-level spec.
    pub fn subdomain_factor(&self) -> Option<&SparseLdlt> {
        match self {
            SpecPrecond::Plain(p) => p.subdomain_factor(),
            SpecPrecond::TwoLevel(p) => p.smoother.subdomain_factor(),
        }
    }
}

impl<Op: LinearOperator + CoarseReduce + InterfaceConsistency + ?Sized> Preconditioner<Op>
    for SpecPrecond
{
    fn apply_into(&self, op: &Op, v: &[f64], z: &mut [f64]) {
        match self {
            SpecPrecond::Plain(p) => p.apply_into(op, v, z),
            SpecPrecond::TwoLevel(p) => p.apply_into(op, v, z),
        }
    }

    fn scratch_vectors(&self) -> usize {
        match self {
            SpecPrecond::Plain(p) => Preconditioner::<Op>::scratch_vectors(p),
            SpecPrecond::TwoLevel(p) => Preconditioner::<Op>::scratch_vectors(p),
        }
    }

    fn apply_scratch(&self, op: &Op, v: &[f64], z: &mut [f64], scratch: &mut [Vec<f64>]) {
        match self {
            SpecPrecond::Plain(p) => p.apply_scratch(op, v, z, scratch),
            SpecPrecond::TwoLevel(p) => p.apply_scratch(op, v, z, scratch),
        }
    }

    fn operator_applications(&self) -> usize {
        match self {
            SpecPrecond::Plain(p) => Preconditioner::<Op>::operator_applications(p),
            SpecPrecond::TwoLevel(p) => Preconditioner::<Op>::operator_applications(p),
        }
    }

    fn current_operator_applications(&self) -> usize {
        match self {
            SpecPrecond::Plain(p) => Preconditioner::<Op>::current_operator_applications(p),
            SpecPrecond::TwoLevel(p) => Preconditioner::<Op>::current_operator_applications(p),
        }
    }

    fn name(&self) -> String {
        match self {
            SpecPrecond::Plain(p) => Preconditioner::<Op>::name(p),
            SpecPrecond::TwoLevel(p) => Preconditioner::<Op>::name(p),
        }
    }
}
