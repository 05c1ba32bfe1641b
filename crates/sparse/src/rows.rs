//! Row-wise read access shared by both storages, and the storage a local
//! finite-element matrix takes.
//!
//! [`SparseRows`] yields each scalar row's stored entries in ascending
//! column order, with block fill left out, so code that walks a matrix's
//! pattern — the factorization, ILU(0), the coarse build — reads the same
//! entries in the same order from CSR and from `B × B` node blocks.
//! [`NodeMatrix`] is a matrix over nodes with interleaved DOFs in the storage
//! its DOFs per node give it: node blocks for 2 or 3, CSR otherwise.

use crate::bcsr::BcsrMatrix;
use crate::csr::CsrMatrix;

/// A sparse matrix read one scalar row at a time.
pub trait SparseRows {
    /// Scalar row count.
    fn n_rows(&self) -> usize;

    /// Scalar column count.
    fn n_cols(&self) -> usize;

    /// The stored entries `(column, value)` of row `r`, ascending by column,
    /// block fill left out.
    fn row_entries(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_;

    /// Number of stored entries of row `r`.
    fn row_len(&self, r: usize) -> usize {
        self.row_entries(r).count()
    }

    /// Number of stored entries of all rows.
    fn nnz(&self) -> usize {
        (0..self.n_rows()).map(|r| self.row_len(r)).sum()
    }

    /// `Σ_j a_rj z_j` over the stored entries of row `r`, one add at a time
    /// in column order: the same bits from either storage.
    fn row_dot(&self, r: usize, z: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (j, a_rj) in self.row_entries(r) {
            acc += a_rj * z[j];
        }
        acc
    }

    /// `Y = A Z` for a row-major panel `Z` of `k` columns: `z[j·k + c]` is
    /// entry `(j, c)` of `Z` (at least `n_cols` rows), `y[r·k + c]` receives
    /// entry `(r, c)` of `Y` for every row. Column `c` of `Y` is
    /// [`SparseRows::row_dot`] of column `c` of `Z`, row by row — one add at
    /// a time in column order, block fill left out — so every column has the
    /// bits of its own `row_dot`, however wide the panel; one sweep of the
    /// matrix serves all `k` columns.
    fn mul_panel(&self, z: &[f64], k: usize, y: &mut [f64]) {
        if k <= 1 {
            let rows = y[..self.n_rows() * k].iter_mut().enumerate();
            rows.for_each(|(r, yr)| *yr = self.row_dot(r, z));
            return;
        }
        for (r, yr) in y[..self.n_rows() * k].chunks_exact_mut(k).enumerate() {
            self.mul_panel_row(r, z, k, yr);
        }
    }

    /// Row `r` of [`SparseRows::mul_panel`] into `y[..k]`: the same chains
    /// of adds, for a product over a few rows.
    fn mul_panel_row(&self, r: usize, z: &[f64], k: usize, y: &mut [f64]) {
        let yr = &mut y[..k];
        yr.fill(0.0);
        for (j, a_rj) in self.row_entries(r) {
            axpy_row(yr, a_rj, &z[j * k..][..k]);
        }
    }

    /// Entry `(r, c)`, `0.0` when it is not stored.
    fn get(&self, r: usize, c: usize) -> f64 {
        (self.row_entries(r).find(|&(j, _)| j == c)).map_or(0.0, |(_, v)| v)
    }

    /// The main diagonal, `0.0` where it is not stored: [`SparseRows::get`]
    /// of every `(r, r)`.
    fn diagonal(&self) -> Vec<f64> {
        (0..self.n_rows()).map(|r| self.get(r, r)).collect()
    }

    /// The node blocks, when they are the storage: code that walks the
    /// whole pattern (the factorization) reads them block by block instead
    /// of through the scalar rows.
    fn node_blocks(&self) -> Option<&BcsrMatrix> {
        None
    }
}

/// `y_c += a · z_c` for every column `c` of one panel row: the step each
/// column's chain of adds takes per stored entry.
#[inline(always)]
pub(crate) fn axpy_row(y: &mut [f64], a: f64, z: &[f64]) {
    for (yc, &zc) in y.iter_mut().zip(z) {
        *yc += a * zc;
    }
}

impl SparseRows for CsrMatrix {
    fn n_rows(&self) -> usize {
        CsrMatrix::n_rows(self)
    }

    fn n_cols(&self) -> usize {
        CsrMatrix::n_cols(self)
    }

    fn row_entries(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (cols, vals) = self.row(r);
        cols.iter().copied().zip(vals.iter().copied())
    }

    fn row_len(&self, r: usize) -> usize {
        self.row(r).0.len()
    }

    fn nnz(&self) -> usize {
        CsrMatrix::nnz(self)
    }

    fn get(&self, r: usize, c: usize) -> f64 {
        CsrMatrix::get(self, r, c)
    }

    fn diagonal(&self) -> Vec<f64> {
        CsrMatrix::diagonal(self)
    }
}

impl CsrMatrix {
    /// A CSR copy of any row view: the same rows, columns and value bits.
    pub fn from_rows<A: SparseRows + ?Sized>(a: &A) -> Self {
        let n = a.n_rows();
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::with_capacity(a.nnz());
        let mut values = Vec::with_capacity(a.nnz());
        row_ptr.push(0);
        for r in 0..n {
            for (c, v) in a.row_entries(r) {
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix::from_raw_parts(n, a.n_cols(), row_ptr, col_idx, values)
            .expect("a row view yields ascending in-range columns")
    }
}

/// A square local matrix over nodes with interleaved DOFs, stored as its
/// DOFs per node dictate: `B × B` node blocks for `B ∈ {2, 3}`, CSR for one
/// DOF per node. Nothing selects the storage but the numbering.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeMatrix {
    /// One DOF per node.
    Csr(CsrMatrix),
    /// Two or three DOFs per node.
    Blocks(BcsrMatrix),
}

impl NodeMatrix {
    /// The storage `dpn` dofs per node give the rows of `a`: the upper block
    /// triangle of `a` copied into node blocks ([`BcsrMatrix::from_csr`])
    /// for 2 or 3 when `a` is symmetric bit for bit, `a` itself otherwise.
    pub fn from_csr(a: CsrMatrix, dpn: usize) -> Self {
        match BcsrMatrix::from_csr(&a, dpn) {
            Some(blocks) => NodeMatrix::Blocks(blocks),
            None => NodeMatrix::Csr(a),
        }
    }

    /// The kernel that applies this matrix, as traces and reports name it:
    /// `csr`, `bcsr2` or `bcsr3`.
    pub fn kernel_label(&self) -> &'static str {
        match self {
            NodeMatrix::Csr(_) => "csr",
            NodeMatrix::Blocks(a) if a.block_size() == 2 => "bcsr2",
            NodeMatrix::Blocks(_) => "bcsr3",
        }
    }

    /// Scalar row count.
    pub fn n_rows(&self) -> usize {
        match self {
            NodeMatrix::Csr(a) => a.n_rows(),
            NodeMatrix::Blocks(a) => a.n_rows(),
        }
    }

    /// Stored entries of the scalar pattern (block fill excluded).
    pub fn nnz(&self) -> usize {
        match self {
            NodeMatrix::Csr(a) => a.nnz(),
            NodeMatrix::Blocks(a) => a.nnz(),
        }
    }

    /// Flops of one SpMV, `2·nnz`.
    pub fn spmv_flops(&self) -> u64 {
        2 * self.nnz() as u64
    }

    /// The node blocks, when that is the storage.
    pub fn as_blocks(&self) -> Option<&BcsrMatrix> {
        match self {
            NodeMatrix::Csr(_) => None,
            NodeMatrix::Blocks(a) => Some(a),
        }
    }

    /// `y = A x` with the storage's own kernel.
    pub fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        match self {
            NodeMatrix::Csr(a) => a.spmv_into(x, y),
            NodeMatrix::Blocks(a) => a.spmv_into(x, y),
        }
    }

    /// The main diagonal.
    pub fn diagonal(&self) -> Vec<f64> {
        match self {
            NodeMatrix::Csr(a) => a.diagonal(),
            NodeMatrix::Blocks(a) => a.diagonal(),
        }
    }

    /// Row-wise absolute sums over the stored entries, in column order:
    /// the same bits from either storage.
    pub fn row_abs_sums(&self) -> Vec<f64> {
        match self {
            NodeMatrix::Csr(a) => a.row_abs_sums(),
            NodeMatrix::Blocks(a) => a.row_abs_sums(),
        }
    }

    /// `A ← D A D` in place, every entry `a_rc·(d_r·d_c)`.
    pub fn scale_symmetric(&mut self, d: &[f64]) {
        match self {
            NodeMatrix::Csr(a) => a.scale_symmetric(d),
            NodeMatrix::Blocks(a) => a.scale_symmetric(d),
        }
    }

    /// `A ← A + α·diag(m)` in place, every diagonal entry `a_rr + α·m_r`.
    ///
    /// # Panics
    /// Panics when a diagonal entry is not stored.
    pub fn add_diagonal(&mut self, alpha: f64, m: &[f64]) {
        assert_eq!(m.len(), self.n_rows(), "add_diagonal: one entry per row");
        match self {
            NodeMatrix::Csr(a) => a.add_diagonal(alpha, m),
            NodeMatrix::Blocks(a) => a.add_diagonal(alpha, m),
        }
    }
}

impl SparseRows for NodeMatrix {
    fn n_rows(&self) -> usize {
        NodeMatrix::n_rows(self)
    }

    fn n_cols(&self) -> usize {
        NodeMatrix::n_rows(self)
    }

    fn row_entries(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        match self {
            NodeMatrix::Csr(a) => Either::Csr(a.row_entries(r)),
            NodeMatrix::Blocks(a) => Either::Blocks(a.row_entries(r)),
        }
    }

    fn row_len(&self, r: usize) -> usize {
        match self {
            NodeMatrix::Csr(a) => a.row_len(r),
            NodeMatrix::Blocks(a) => a.row_len(r),
        }
    }

    fn nnz(&self) -> usize {
        NodeMatrix::nnz(self)
    }

    fn row_dot(&self, r: usize, z: &[f64]) -> f64 {
        match self {
            NodeMatrix::Csr(a) => a.row_dot(r, z),
            NodeMatrix::Blocks(a) => a.row_dot(r, z),
        }
    }

    fn mul_panel(&self, z: &[f64], k: usize, y: &mut [f64]) {
        match self {
            NodeMatrix::Csr(a) => a.mul_panel(z, k, y),
            NodeMatrix::Blocks(a) => a.mul_panel(z, k, y),
        }
    }

    fn mul_panel_row(&self, r: usize, z: &[f64], k: usize, y: &mut [f64]) {
        match self {
            NodeMatrix::Csr(a) => a.mul_panel_row(r, z, k, y),
            NodeMatrix::Blocks(a) => a.mul_panel_row(r, z, k, y),
        }
    }

    fn diagonal(&self) -> Vec<f64> {
        NodeMatrix::diagonal(self)
    }

    fn node_blocks(&self) -> Option<&BcsrMatrix> {
        self.as_blocks()
    }
}

/// A row of either storage, one match per entry.
enum Either<C, B> {
    Csr(C),
    Blocks(B),
}

impl<C, B> Iterator for Either<C, B>
where
    C: Iterator<Item = (usize, f64)>,
    B: Iterator<Item = (usize, f64)>,
{
    type Item = (usize, f64);

    #[inline]
    fn next(&mut self) -> Option<(usize, f64)> {
        match self {
            Either::Csr(it) => it.next(),
            Either::Blocks(it) => it.next(),
        }
    }
}
