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
//! loops.
//!
//! What a workspace carries between solves depends on how it was made:
//!
//! - [`KrylovWorkspace::new`] (and [`KrylovWorkspace::with_capacity`])
//!   carries capacity only. Solves that reuse it are bit-identical to
//!   solves on a fresh one.
//! - [`KrylovWorkspace::for_fixed_operator`] is the opt-in of a caller that
//!   runs every solve on this workspace against **one** operator. When a
//!   solve ends in a cycle that began from a deflated restart, its head
//!   `A Z_k = V_{k+1} H̄_k` is left in `v`, `z` and the unrotated Hessenberg;
//!   the next solve turns it into the recycled pair `A U = C` and starts
//!   every cycle from it (see the `gmres` module docs). The first solve on
//!   such a workspace is bit-identical to one on [`KrylovWorkspace::new`].
//!   Resizing it to a new `n` or `m`, or a solve that returns an error,
//!   drops whatever it carries.
//!
//! `n` is the rank-local dimension (the whole vector on one rank), and a
//! packed `reduce` buffer batches the Gram–Schmidt inner
//! products for the single per-iteration all-reduce of the paper's
//! Algorithms 5/6/8 (and the Gram matrix of a deflated restart).
//!
//! The deflated restart's scratch (`Deflation`) is sized here as well:
//! the unrotated Hessenberg, the harmonic-Ritz eigenproblem, the small
//! recombination matrix `P_{k+1}`, the Gram matrix and a row-chunked
//! recombination buffer of `(k + 1) × RECOMBINE_CHUNK` values — never an
//! extra `n`-vector.

use crate::givens::Givens;

/// Preallocated buffers for restarted FGMRES (see the module docs).
///
/// Treat the contents as scratch: only a workspace made by
/// [`KrylovWorkspace::for_fixed_operator`] hands anything from one solve
/// to the next.
#[derive(Debug, Clone, Default)]
pub struct KrylovWorkspace {
    /// Arnoldi basis vectors `v_0 … v_m` (`restart + 1` vectors of length `n`).
    pub(crate) v: Vec<Vec<f64>>,
    /// Flexible (preconditioned) vectors `z_0 … z_{m-1}`.
    pub(crate) z: Vec<Vec<f64>>,
    /// Hessenberg columns; column `j` uses entries `0 ..= j + 1`.
    pub(crate) h: Vec<Vec<f64>>,
    /// Accumulated Givens rotations of the current cycle, each with the
    /// row `i` of the pair `(i, i + 1)` it acts on.
    pub(crate) rotations: Vec<(usize, Givens)>,
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
    /// dot products of one iteration, or the Gram matrix of a deflated
    /// restart, so the all-reduce is a single message).
    pub(crate) reduce: Vec<f64>,
    /// Scratch of the deflated restart.
    pub(crate) defl: Deflation,
    /// High-water mark of convergence-history lengths seen by solves using
    /// this workspace. Solvers pre-reserve their residual history to this
    /// hint, so once a workspace is warm (one solve of representative
    /// length), subsequent solves allocate a history of fixed capacity and
    /// push into it without growth — the last per-iteration allocation the
    /// zero-alloc gates track. Purely a capacity hint: it never affects
    /// results.
    pub(crate) history_hint: usize,
    /// Whether the owner solves one fixed operator on this workspace, so a
    /// solve may hand its deflation space to the next.
    pub(crate) recycle: bool,
    /// What the last solve left for the next one.
    pub(crate) carry: Carry,
}

/// The deflation space a solve hands to the next solve on a
/// [`KrylovWorkspace::for_fixed_operator`] workspace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum Carry {
    /// Nothing to recycle.
    #[default]
    None,
    /// The head of a deflated cycle, `A Z_k = V_{k+1} H̄_k`, with `V_{k+1}`
    /// in `v[..=k]`, `Z_k` in `z[..k]` and the raw `H̄_k` in
    /// `defl.hbar[..k]`.
    Head(usize),
    /// The recycled pair `A U = C`, `C` orthonormal, with `C` in `v[..k]`
    /// and `U` in `z[..k]`.
    Pair(usize),
}

/// Rows per block of the in-place basis recombination `V ← V P`.
const RECOMBINE_CHUNK: usize = 256;

/// The number of harmonic Ritz vectors a restart of dimension `m` carries:
/// `m / 4` (zero below `m = 4`: plain restarting).
pub(crate) fn deflation_dim(m: usize) -> usize {
    m / 4
}

/// Scratch of the deflated restart (FGMRES-DR). With `k = m/4`, at most
/// `k + 1` vectors are carried (a complex pair straddling the cut enters
/// whole), so `P` has up to `k + 2` columns.
#[derive(Debug, Clone, Default)]
pub(crate) struct Deflation {
    /// Unrotated Hessenberg columns `H̄_m` of the cycle (`m` × `m + 1`).
    pub(crate) hbar: Vec<Vec<f64>>,
    /// The cycle's starting least-squares right-hand side `c` (`m + 1`).
    pub(crate) c: Vec<f64>,
    /// The least-squares residual `s = c − H̄y` (`m + 1`).
    pub(crate) s: Vec<f64>,
    /// Row-major `m × m` harmonic-Ritz matrix, and a working copy.
    pub(crate) mat: Vec<f64>,
    pub(crate) work: Vec<f64>,
    /// Eigenvalues (real, imaginary parts) and the `|θ|` order (`m`).
    pub(crate) wr: Vec<f64>,
    pub(crate) wi: Vec<f64>,
    pub(crate) order: Vec<usize>,
    /// Inverse-iteration scratch: `(2m)²` LU, `2m` pivots, `2m` iterate.
    pub(crate) lu: Vec<f64>,
    pub(crate) piv: Vec<usize>,
    pub(crate) x: Vec<f64>,
    /// Columns of `P_{k+1}` (each `m + 1` long).
    pub(crate) p: Vec<Vec<f64>>,
    /// Columns of `H̄_m P_k` (each `m + 1` long).
    pub(crate) hp: Vec<Vec<f64>>,
    /// Row-major Gram matrix of the recombined basis, then its Cholesky
    /// factor `R` (`(k + 2)²`).
    pub(crate) gram: Vec<f64>,
    /// Row-chunked recombination buffer (`(k + 2) × RECOMBINE_CHUNK`).
    pub(crate) chunk: Vec<f64>,
    /// The harmonic Ritz values deflated at the last restart, `(re, im)`.
    pub(crate) theta: Vec<(f64, f64)>,
}

impl Deflation {
    fn ensure(&mut self, m: usize) {
        let kc = deflation_dim(m) + 1;
        ensure_pool(&mut self.hbar, m, m + 1);
        ensure_pool(&mut self.p, kc + 1, m + 1);
        ensure_pool(&mut self.hp, kc, m + 1);
        for (buf, len) in [
            (&mut self.c, m + 1),
            (&mut self.s, m + 1),
            (&mut self.mat, m * m),
            (&mut self.work, m * m),
            (&mut self.wr, m),
            (&mut self.wi, m),
            (&mut self.lu, 4 * m * m),
            (&mut self.x, 2 * m),
            (&mut self.gram, (kc + 1) * (kc + 1)),
            (&mut self.chunk, (kc + 1) * RECOMBINE_CHUNK),
        ] {
            if buf.len() != len {
                buf.resize(len, 0.0);
            }
        }
        for (buf, len) in [(&mut self.order, m), (&mut self.piv, 2 * m)] {
            if buf.len() != len {
                buf.resize(len, 0);
            }
        }
        // Dependent eigenvectors are skipped, so up to every θ may be tried.
        self.theta.clear();
        if self.theta.capacity() < m {
            self.theta.reserve(m);
        }
    }
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

    /// An empty workspace for a caller whose every solve on it is against
    /// one fixed operator (and one preconditioner): each solve after the
    /// first starts from the deflation space the solve before it found (see
    /// the module docs). The first solve is bit-identical to one on
    /// [`KrylovWorkspace::new`].
    pub fn for_fixed_operator() -> Self {
        KrylovWorkspace {
            recycle: true,
            ..Self::default()
        }
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
        if self.g.len() != m + 1 || self.r.len() != n {
            self.carry = Carry::None;
        }
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
        // candidate norm contribution, or the lower triangle of the Gram
        // matrix of up to k + 2 carried vectors.
        let kc = deflation_dim(m) + 1;
        let reduce = (m + 2).max((kc + 1) * (kc + 2) / 2);
        if self.reduce.len() != reduce {
            self.reduce.resize(reduce, 0.0);
        }
        // A deflated cycle triangularises its dense (k + 1) × k head with
        // k(k + 1)/2 rotations before its m − k Arnoldi ones.
        let rotations = m + kc * (kc + 1) / 2;
        self.rotations.clear();
        if self.rotations.capacity() < rotations {
            self.rotations.reserve(rotations);
        }
        self.defl.ensure(m);
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
        // m = 4 carries up to k + 1 = 2 vectors: P has 3 columns, and the
        // Gram matrix of 3 vectors fits the reduce buffer.
        assert_eq!(ws.defl.p.len(), 3);
        assert_eq!(ws.defl.hbar.len(), 4);
        assert_eq!(ws.defl.lu.len(), 64);
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
