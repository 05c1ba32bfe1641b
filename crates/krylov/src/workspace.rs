//! Reusable storage for the restarted FGMRES loop.
//!
//! One [`KrylovWorkspace`] owns every buffer the solver's restart and
//! iteration loops touch: the Arnoldi basis `V`, the flexible vectors `Z`,
//! the Hessenberg columns, the Givens rotations, the least-squares
//! right-hand side, the residual and matvec temporaries, and the
//! preconditioner scratch (see
//! [`Preconditioner::apply_scratch`](parfem_precond::Preconditioner::apply_scratch)).
//! After [`KrylovWorkspace::ensure`] has sized the buffers once, a solve
//! performs **zero heap allocation** inside its restart and iteration
//! loops, and solves that reuse a workspace are bit-identical to solves on
//! a fresh one — the buffers carry no state between solves, only capacity.
//!
//! `n` is the rank-local dimension (the whole vector on one rank), and a
//! packed `reduce` buffer batches the Gram–Schmidt inner
//! products for the single per-iteration all-reduce of the paper's
//! Algorithms 5/6/8.

use crate::givens::Givens;

/// Preallocated buffers for restarted FGMRES (see the module docs).
///
/// Treat the contents as scratch — nothing is preserved across solves.
#[derive(Debug, Clone, Default)]
pub struct KrylovWorkspace {
    /// Arnoldi basis vectors `v_0 … v_m` (`restart + 1` vectors of length `n`).
    pub(crate) v: Vec<Vec<f64>>,
    /// Flexible (preconditioned) vectors `z_0 … z_{m-1}`.
    pub(crate) z: Vec<Vec<f64>>,
    /// Hessenberg columns; column `j` uses entries `0 ..= j + 1`.
    pub(crate) h: Vec<Vec<f64>>,
    /// Accumulated Givens rotations of the current cycle.
    pub(crate) rotations: Vec<Givens>,
    /// Least-squares right-hand side `g` (length `restart + 1`).
    pub(crate) g: Vec<f64>,
    /// Residual vector (length `n`).
    pub(crate) r: Vec<f64>,
    /// Matvec / orthogonalization temporary `w` (length `n`).
    pub(crate) w: Vec<f64>,
    /// Back-substitution solution `y` (length `restart`).
    pub(crate) y: Vec<f64>,
    /// Scratch vectors for `Preconditioner::apply_scratch`.
    pub(crate) precond_scratch: Vec<Vec<f64>>,
    /// Packed buffer for batched reductions (the classical-Gram–Schmidt
    /// dot products of one iteration, so the all-reduce is a single
    /// message).
    pub(crate) reduce: Vec<f64>,
    /// High-water mark of convergence-history lengths seen by solves using
    /// this workspace. Solvers pre-reserve their residual history to this
    /// hint, so once a workspace is warm (one solve of representative
    /// length), subsequent solves allocate a history of fixed capacity and
    /// push into it without growth — the last per-iteration allocation the
    /// zero-alloc gates track. Purely a capacity hint: it never affects
    /// results.
    pub(crate) history_hint: usize,
}

/// Grows `pool` to `count` buffers, each of exact length `len`.
fn ensure_pool(pool: &mut Vec<Vec<f64>>, count: usize, len: usize) {
    for buf in pool.iter_mut() {
        if buf.len() != len {
            buf.resize(len, 0.0);
        }
    }
    while pool.len() < count {
        pool.push(vec![0.0; len]);
    }
}

impl KrylovWorkspace {
    /// An empty workspace; buffers are sized lazily by
    /// [`KrylovWorkspace::ensure`] on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A workspace pre-sized for problem dimension `n`, restart dimension
    /// `m`, and `scratch` preconditioner scratch vectors, so the first
    /// solve is already allocation-free.
    pub fn with_capacity(n: usize, m: usize, scratch: usize) -> Self {
        let mut ws = Self::new();
        ws.ensure(n, m, scratch);
        ws
    }

    /// Sizes every buffer for dimension `n`, restart `m`, and `scratch`
    /// preconditioner scratch vectors. Idempotent: when the workspace
    /// already fits, no allocation is performed — this is what the solvers
    /// call at entry, making reuse zero-cost and first use self-sizing.
    pub fn ensure(&mut self, n: usize, m: usize, scratch: usize) {
        ensure_pool(&mut self.v, m + 1, n);
        ensure_pool(&mut self.z, m, n);
        ensure_pool(&mut self.h, m, m + 1);
        ensure_pool(&mut self.precond_scratch, scratch, n);
        if self.g.len() != m + 1 {
            self.g.resize(m + 1, 0.0);
        }
        if self.r.len() != n {
            self.r.resize(n, 0.0);
        }
        if self.w.len() != n {
            self.w.resize(n, 0.0);
        }
        if self.y.len() != m {
            self.y.resize(m, 0.0);
        }
        // One batched reduction carries up to m + 1 dot products plus the
        // candidate norm contribution.
        if self.reduce.len() != m + 2 {
            self.reduce.resize(m + 2, 0.0);
        }
        self.rotations.clear();
        if self.rotations.capacity() < m {
            self.rotations.reserve(m - self.rotations.capacity());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_sizes_all_buffers() {
        let mut ws = KrylovWorkspace::new();
        ws.ensure(10, 4, 2);
        assert_eq!(ws.v.len(), 5);
        assert_eq!(ws.z.len(), 4);
        assert_eq!(ws.h.len(), 4);
        assert!(ws.v.iter().all(|b| b.len() == 10));
        assert!(ws.h.iter().all(|b| b.len() == 5));
        assert_eq!(ws.precond_scratch.len(), 2);
        assert_eq!(ws.g.len(), 5);
        assert_eq!(ws.r.len(), 10);
        assert_eq!(ws.w.len(), 10);
        assert_eq!(ws.y.len(), 4);
        assert_eq!(ws.reduce.len(), 6);
    }

    #[test]
    fn ensure_is_idempotent_and_adapts() {
        let mut ws = KrylovWorkspace::with_capacity(8, 3, 1);
        ws.ensure(8, 3, 1); // no-op
        assert_eq!(ws.v.len(), 4);
        // Growing the problem reshapes every buffer.
        ws.ensure(20, 5, 3);
        assert_eq!(ws.v.len(), 6);
        assert!(ws.v.iter().all(|b| b.len() == 20));
        assert_eq!(ws.precond_scratch.len(), 3);
        // Shrinking keeps the pools usable at the smaller size.
        ws.ensure(4, 2, 0);
        assert!(ws.v.iter().all(|b| b.len() == 4));
        assert_eq!(ws.y.len(), 2);
    }
}
