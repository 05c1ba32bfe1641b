//! Block-CSR storage with `B × B` node blocks, `B ∈ {2, 3}`, built from CSR.
//!
//! A finite-element discretization with `B` DOFs per node (2-D elasticity:
//! `u_x`, `u_y`; 3-D: `u_x`, `u_y`, `u_z`) numbers a node's DOFs
//! consecutively, so every entry coupling node `a` to node `b` lands in the
//! same `B × B` block as its companions. Storing those blocks contiguously
//! cuts the index metadata to one `u32` block column per `B²` values
//! (9 B per entry at `B = 2` against CSR's 16) and turns the inner SpMV loop
//! into a dense `y_a += K_ab x_b` update that loads each `x` value once per
//! block instead of once per entry.
//!
//! Blocks are filled with explicit zeros where the scalar pattern is
//! incomplete — the lone diagonal of a constrained DOF, the columns dropped
//! next to one — so the format holds a little more than the source
//! ([`BcsrMatrix::fill_ratio`], 1.001–1.002 on the workspace's meshes).
//! [`BcsrMatrix::nnz`] and [`BcsrMatrix::spmv_flops`] keep counting the
//! *source* entries: the fill is storage, not work the model charges.
//!
//! Reduction-order contract: a row accumulates block by block, each block
//! contributing `((b₀·x₀ + b₁·x₁) + b₂·x₂)` in one add — a different
//! association than the CSR kernels' four-partial tree, so block SpMV agrees
//! with [`crate::CsrMatrix::spmv_into`] to the reassociation bound
//! `c·ε·Σ|aᵢⱼ xⱼ|`, not bit for bit. Within the format the order is fixed:
//! [`BcsrMatrix::spmv_into`] and any partition of the block rows over
//! [`BcsrMatrix::spmv_block_rows`] calls produce identical bits.

use crate::csr::CsrMatrix;
use crate::op::LinearOperator;

/// A sparse matrix in `B × B` block-CSR format. Build with
/// [`BcsrMatrix::from_csr`] or [`BcsrMatrix::from_csr_scaled`].
#[derive(Debug, Clone, PartialEq)]
pub struct BcsrMatrix {
    /// Block edge `B` (2 or 3).
    b: usize,
    /// Scalar row count (a multiple of `B`).
    n_rows: usize,
    /// Scalar column count (a multiple of `B`).
    n_cols: usize,
    /// Per-block-row offsets into `bcol_idx` (and, times `B²`, `blocks`).
    brow_ptr: Vec<usize>,
    /// Block column indices (scalar columns `B·c .. B·c + B`), ascending
    /// within a block row.
    bcol_idx: Vec<u32>,
    /// Row-major `B × B` blocks, back to back.
    blocks: Vec<f64>,
    /// Stored entries of the source matrix (fill-in excluded).
    nnz: usize,
}

/// Walks the distinct block columns of block row `br` in ascending order:
/// `visit(bc, cursors)` sees, per scalar row of the block row, the range of
/// source entries that fall into block column `bc`. The scalar rows' column
/// lists are ascending, so this is a `B`-way merge.
fn merge_block_row(
    b: usize,
    br: usize,
    row_ptr: &[usize],
    col_idx: &[usize],
    mut visit: impl FnMut(usize, &[(usize, usize); 3]),
) {
    let mut cur = [0usize; 3];
    let mut end = [0usize; 3];
    for i in 0..b {
        cur[i] = row_ptr[br * b + i];
        end[i] = row_ptr[br * b + i + 1];
    }
    loop {
        let next = (0..b)
            .filter(|&i| cur[i] < end[i])
            .map(|i| col_idx[cur[i]] / b)
            .min();
        let Some(bc) = next else { break };
        let mut ranges = [(0usize, 0usize); 3];
        for i in 0..b {
            let lo = cur[i];
            while cur[i] < end[i] && col_idx[cur[i]] / b == bc {
                cur[i] += 1;
            }
            ranges[i] = (lo, cur[i]);
        }
        visit(bc, &ranges);
    }
}

impl BcsrMatrix {
    /// Copies a CSR matrix into `b × b` blocks. `None` unless `b` is 2 or 3
    /// and divides both dimensions (no node-block structure to follow).
    ///
    /// # Panics
    /// Panics if a block column index does not fit in `u32`.
    pub fn from_csr(a: &CsrMatrix, b: usize) -> Option<Self> {
        Self::build(a, b, |_, _, v| v)
    }

    /// The symmetrically scaled matrix `D A D`, `D = diag(d)`, in `b × b`
    /// blocks, straight from the unscaled CSR source: every stored value is
    /// `a_rc · (d_r · d_c)`, the expression of
    /// [`CsrMatrix::scale_symmetric`], so the blocks hold exactly the bits a
    /// scaled CSR copy would — without that copy existing.
    ///
    /// # Panics
    /// Panics if `d` does not match the (square) dimension, or on block
    /// column overflow.
    pub fn from_csr_scaled(a: &CsrMatrix, b: usize, d: &[f64]) -> Option<Self> {
        assert_eq!(a.n_rows(), a.n_cols(), "from_csr_scaled: square only");
        assert_eq!(d.len(), a.n_rows(), "from_csr_scaled: d length mismatch");
        Self::build(a, b, |r, c, v| v * (d[r] * d[c]))
    }

    /// Two linear passes over the source pattern: count the blocks of every
    /// block row, allocate exactly, fill.
    fn build(a: &CsrMatrix, b: usize, value: impl Fn(usize, usize, f64) -> f64) -> Option<Self> {
        if !matches!(b, 2 | 3) || !a.n_rows().is_multiple_of(b) || !a.n_cols().is_multiple_of(b) {
            return None;
        }
        assert!(a.n_cols() / b <= u32::MAX as usize, "block column overflow");
        let (row_ptr, col_idx, values) = a.raw_parts();
        let nb = a.n_rows() / b;
        let mut brow_ptr = Vec::with_capacity(nb + 1);
        brow_ptr.push(0usize);
        let mut n_blocks = 0usize;
        for br in 0..nb {
            merge_block_row(b, br, row_ptr, col_idx, |_, _| n_blocks += 1);
            brow_ptr.push(n_blocks);
        }
        let mut bcol_idx: Vec<u32> = Vec::with_capacity(n_blocks);
        let mut blocks = vec![0.0; n_blocks * b * b];
        for br in 0..nb {
            merge_block_row(b, br, row_ptr, col_idx, |bc, ranges| {
                let block = &mut blocks[bcol_idx.len() * b * b..][..b * b];
                for (i, &(lo, hi)) in ranges[..b].iter().enumerate() {
                    for e in lo..hi {
                        let c = col_idx[e];
                        block[i * b + c % b] = value(br * b + i, c, values[e]);
                    }
                }
                bcol_idx.push(bc as u32);
            });
        }
        Some(BcsrMatrix {
            b,
            n_rows: a.n_rows(),
            n_cols: a.n_cols(),
            brow_ptr,
            bcol_idx,
            blocks,
            nnz: a.nnz(),
        })
    }

    /// The block edge `B`.
    pub fn block_size(&self) -> usize {
        self.b
    }

    /// Scalar row count.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Scalar column count.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of block rows (`n_rows / B`).
    pub fn n_block_rows(&self) -> usize {
        self.brow_ptr.len() - 1
    }

    /// Stored entries of the source matrix (fill-in excluded).
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Number of stored blocks (each holds `B²` values).
    pub fn n_blocks(&self) -> usize {
        self.bcol_idx.len()
    }

    /// Fill-in ratio: stored block entries over source entries (1.0 means
    /// the scalar pattern was perfectly node-blocked).
    pub fn fill_ratio(&self) -> f64 {
        if self.nnz == 0 {
            1.0
        } else {
            self.blocks.len() as f64 / self.nnz as f64
        }
    }

    /// Flops of one SpMV (fill-in excluded, matching
    /// [`CsrMatrix::spmv_flops`] on the source matrix).
    pub fn spmv_flops(&self) -> u64 {
        2 * self.nnz as u64
    }

    /// Heap bytes the three arrays hold.
    pub fn bytes(&self) -> usize {
        self.brow_ptr.len() * size_of::<usize>()
            + self.bcol_idx.len() * size_of::<u32>()
            + self.blocks.len() * size_of::<f64>()
    }

    /// The main diagonal (0 where a diagonal block is not stored).
    pub fn diagonal(&self) -> Vec<f64> {
        let b = self.b;
        let mut d = vec![0.0; self.n_rows.min(self.n_cols)];
        for (br, dr) in d.chunks_exact_mut(b).enumerate() {
            let (lo, hi) = (self.brow_ptr[br], self.brow_ptr[br + 1]);
            if let Ok(k) = self.bcol_idx[lo..hi].binary_search(&(br as u32)) {
                let block = &self.blocks[(lo + k) * b * b..][..b * b];
                for (i, di) in dr.iter_mut().enumerate() {
                    *di = block[i * b + i];
                }
            }
        }
        d
    }

    /// The one block kernel: `y[B·r .. B·r + B] = (A x)[..]` for every block
    /// row `r` the iterator yields, the row's blocks in stored order.
    #[inline(always)]
    fn rows<const B: usize>(&self, rows: impl Iterator<Item = usize>, x: &[f64], y: &mut [f64]) {
        for br in rows {
            let (lo, hi) = (self.brow_ptr[br], self.brow_ptr[br + 1]);
            let cols = &self.bcol_idx[lo..hi];
            let blocks = self.blocks[lo * B * B..hi * B * B].chunks_exact(B * B);
            let mut acc = [0.0; B];
            for (&bc, block) in cols.iter().zip(blocks) {
                let xs = &x[bc as usize * B..][..B];
                for i in 0..B {
                    let mut t = block[i * B] * xs[0];
                    for j in 1..B {
                        t += block[i * B + j] * xs[j];
                    }
                    acc[i] += t;
                }
            }
            y[br * B..][..B].copy_from_slice(&acc);
        }
    }

    fn check_dims(&self, x: &[f64], y: &[f64]) {
        assert_eq!(x.len(), self.n_cols, "bcsr spmv: x length mismatch");
        assert_eq!(y.len(), self.n_rows, "bcsr spmv: y length mismatch");
    }

    /// `y = A x` via dense `B × B` block updates.
    ///
    /// # Panics
    /// Panics on dimension mismatches.
    pub fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        self.check_dims(x, y);
        let all = 0..self.n_block_rows();
        match self.b {
            2 => self.rows::<2>(all, x, y),
            _ => self.rows::<3>(all, x, y),
        }
    }

    /// `y[B·r .. B·r + B] = (A x)[..]` for the listed block rows only; the
    /// rest of the full-length `y` is left alone. Each block row is the
    /// arithmetic of [`BcsrMatrix::spmv_into`], so computing a partition of
    /// the block rows in any number of calls reproduces the full product bit
    /// for bit — the kernel behind the overlapped distributed matvec.
    ///
    /// # Panics
    /// Panics on dimension mismatches or a block row out of range.
    pub fn spmv_block_rows(&self, x: &[f64], y: &mut [f64], block_rows: &[u32]) {
        self.check_dims(x, y);
        let listed = block_rows.iter().map(|&r| r as usize);
        match self.b {
            2 => self.rows::<2>(listed, x, y),
            _ => self.rows::<3>(listed, x, y),
        }
    }

    /// Allocating convenience wrapper for [`BcsrMatrix::spmv_into`].
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n_rows];
        self.spmv_into(x, &mut y);
        y
    }
}

impl LinearOperator for BcsrMatrix {
    fn dim(&self) -> usize {
        self.n_rows
    }

    fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        self.spmv_into(x, y);
    }

    fn apply_flops(&self) -> u64 {
        self.spmv_flops()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    impl BcsrMatrix {
        /// Row-major dense copy, fill-in zeros included.
        fn to_dense(&self) -> Vec<f64> {
            let b = self.b;
            let mut dense = vec![0.0; self.n_rows * self.n_cols];
            for br in 0..self.n_block_rows() {
                for k in self.brow_ptr[br]..self.brow_ptr[br + 1] {
                    let c0 = b * self.bcol_idx[k] as usize;
                    for (e, &v) in self.blocks[k * b * b..][..b * b].iter().enumerate() {
                        dense[(br * b + e / b) * self.n_cols + c0 + e % b] = v;
                    }
                }
            }
            dense
        }
    }

    fn blocky(nb: usize, b: usize) -> CsrMatrix {
        // Block-tridiagonal with full b x b blocks — the elasticity shape.
        let n = b * nb;
        let mut coo = CooMatrix::new(n, n);
        for br in 0..nb {
            for (db, w) in [(0i64, 4.0), (-1, -1.0), (1, -1.0)] {
                let c = br as i64 + db;
                if c < 0 || c >= nb as i64 {
                    continue;
                }
                let c = c as usize;
                for i in 0..b {
                    for j in 0..b {
                        let v = w + 0.1 * (i * b + j) as f64 + 0.01 * br as f64;
                        coo.push(b * br + i, b * c + j, v).unwrap();
                    }
                }
            }
        }
        coo.to_csr()
    }

    fn partial_blocks(n: usize) -> CsrMatrix {
        // Scalar diagonal pattern plus one far entry per row: every block
        // is mostly fill.
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 1.0 + i as f64).unwrap();
            if i + 2 < n {
                coo.push(i, i + 2, -0.5).unwrap();
            }
        }
        coo.to_csr()
    }

    #[test]
    fn odd_dims_are_rejected() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 1.0).unwrap();
        let a = coo.to_csr();
        assert!(BcsrMatrix::from_csr(&a, 2).is_none());
        assert!(BcsrMatrix::from_csr(&a, 3).is_some());
        // Only node blocks of 2 or 3 DOFs have a block kernel.
        assert!(BcsrMatrix::from_csr(&blocky(4, 2), 1).is_none());
        assert!(BcsrMatrix::from_csr(&blocky(4, 2), 4).is_none());
    }

    #[test]
    fn round_trip_is_exact_on_full_blocks() {
        for b in [2, 3] {
            let a = blocky(9, b);
            let blocks = BcsrMatrix::from_csr(&a, b).unwrap();
            assert_eq!(blocks.fill_ratio(), 1.0);
            assert_eq!(blocks.bytes(), (10 + 25 * b * b) * 8 + 25 * 4);
            assert_eq!(blocks.to_dense(), a.to_dense());
            assert_eq!(blocks.diagonal(), a.diagonal());
        }
    }

    #[test]
    fn round_trip_is_exact_on_partial_blocks() {
        for b in [2, 3] {
            let a = partial_blocks(12);
            let blocks = BcsrMatrix::from_csr(&a, b).unwrap();
            assert!(blocks.fill_ratio() > 1.0);
            assert_eq!(blocks.nnz(), a.nnz());
            assert_eq!(blocks.to_dense(), a.to_dense());
            assert_eq!(blocks.diagonal(), a.diagonal());
        }
    }

    #[test]
    fn scaled_blocks_hold_the_bits_of_the_scaled_csr() {
        for b in [2, 3] {
            let a = blocky(7, b);
            let d: Vec<f64> = (0..a.n_rows())
                .map(|i| 1.0 / (1.5 + i as f64).sqrt())
                .collect();
            let mut scaled = a.clone();
            scaled.scale_symmetric(&d);
            let blocks = BcsrMatrix::from_csr_scaled(&a, b, &d).unwrap();
            assert_eq!(blocks.to_dense(), scaled.to_dense());
        }
    }

    #[test]
    fn spmv_matches_csr_closely() {
        for (a, b) in [
            (blocky(11, 2), 2),
            (blocky(11, 3), 3),
            (partial_blocks(18), 2),
            (partial_blocks(18), 3),
        ] {
            let blocks = BcsrMatrix::from_csr(&a, b).unwrap();
            let x: Vec<f64> = (0..a.n_cols())
                .map(|i| ((i * 31 % 13) as f64) - 6.0)
                .collect();
            let want = a.spmv(&x);
            let got = blocks.spmv(&x);
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() <= 1e-12 * (1.0 + w.abs()), "{g} vs {w}");
            }
        }
    }

    #[test]
    fn block_row_subsets_reassemble_the_full_product_bit_for_bit() {
        for b in [2, 3] {
            let a = blocky(13, b);
            let blocks = BcsrMatrix::from_csr(&a, b).unwrap();
            let x: Vec<f64> = (0..a.n_cols()).map(|i| (i as f64 * 0.37).sin()).collect();
            let full = blocks.spmv(&x);
            let (some, rest): (Vec<u32>, Vec<u32>) = (0..13u32).partition(|r| r % 3 == 0);
            let mut split = vec![f64::NAN; a.n_rows()];
            blocks.spmv_block_rows(&x, &mut split, &some);
            blocks.spmv_block_rows(&x, &mut split, &rest);
            assert_eq!(split, full);
        }
    }
}
