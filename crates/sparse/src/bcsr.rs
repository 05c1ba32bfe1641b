//! Block-CSR storage with `B × B` node blocks, `B ∈ {2, 3}`.
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
//! The element assembly scatters straight into this format
//! ([`BcsrMatrix::from_raw_parts`]); [`BcsrMatrix::from_csr`] copies a CSR
//! matrix into it. Blocks are filled with explicit zeros where the scalar
//! pattern is incomplete — the lone diagonal of a constrained DOF, the
//! columns dropped next to one — and the few blocks holding fill carry a
//! mask of the entries the scalar pattern holds, so [`SparseRows`] walks
//! exactly that pattern
//! ([`BcsrMatrix::fill_ratio`], 1.001–1.002 on the workspace's meshes).
//! [`BcsrMatrix::nnz`] and [`BcsrMatrix::spmv_flops`] count the scalar
//! pattern: the fill is storage, not work the model charges.
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
use crate::rows::{axpy_row, SparseRows};

/// A sparse matrix in `B × B` block-CSR format. Build with
/// [`BcsrMatrix::from_raw_parts`] or [`BcsrMatrix::from_csr`].
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
    /// The blocks holding fill, ascending by block index, each with its
    /// mask: bit `i·B + j` set where the scalar pattern stores entry
    /// `(i, j)`. Every other block is full. Fill sits next to constrained
    /// DOFs only, so the list is short.
    fill: Vec<(u32, u16)>,
    /// Stored entries of the scalar pattern (fill excluded).
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
    /// A square block matrix from its arrays: `n_rows` scalar rows in
    /// `n_rows / b` block rows, `brow_ptr`/`bcol_idx` the block pattern
    /// (block columns ascending within a row), `blocks` the row-major
    /// `b × b` blocks and `fill` the blocks that are not full, ascending,
    /// each with the mask of the entries the scalar pattern holds (bit
    /// `i·b + j`; the others must be zero).
    ///
    /// # Panics
    /// Panics when `b` is not 2 or 3 or the arrays disagree.
    pub fn from_raw_parts(
        b: usize,
        n_rows: usize,
        brow_ptr: Vec<usize>,
        bcol_idx: Vec<u32>,
        blocks: Vec<f64>,
        fill: Vec<(u32, u16)>,
    ) -> Self {
        assert!(matches!(b, 2 | 3), "node blocks are 2 x 2 or 3 x 3");
        assert_eq!(brow_ptr.len() * b, n_rows + b, "block row pointers");
        assert_eq!(brow_ptr.last(), Some(&bcol_idx.len()), "block columns");
        assert_eq!(blocks.len(), bcol_idx.len() * b * b, "block values");
        assert!(
            fill.windows(2).all(|w| w[0].0 < w[1].0)
                && fill.last().is_none_or(|f| (f.0 as usize) < bcol_idx.len()),
            "fill blocks ascending and in range"
        );
        let missing: usize = (fill.iter())
            .map(|&(_, m)| b * b - m.count_ones() as usize)
            .sum();
        BcsrMatrix {
            b,
            n_rows,
            n_cols: n_rows,
            nnz: blocks.len() - missing,
            brow_ptr,
            bcol_idx,
            blocks,
            fill,
        }
    }

    /// Copies a CSR matrix into `b × b` blocks: the reference the directly
    /// assembled blocks are checked against. `None` unless `b` is 2 or 3
    /// and divides both dimensions (no node-block structure to follow).
    ///
    /// # Panics
    /// Panics if a block column index does not fit in `u32`.
    pub fn from_csr(a: &CsrMatrix, b: usize) -> Option<Self> {
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
        let mut fill = Vec::new();
        for br in 0..nb {
            merge_block_row(b, br, row_ptr, col_idx, |bc, ranges| {
                let block = &mut blocks[bcol_idx.len() * b * b..][..b * b];
                let mut bits = 0u16;
                for (i, &(lo, hi)) in ranges[..b].iter().enumerate() {
                    for e in lo..hi {
                        let at = i * b + col_idx[e] % b;
                        block[at] = values[e];
                        bits |= 1 << at;
                    }
                }
                if bits != full_mask(b) {
                    fill.push((bcol_idx.len() as u32, bits));
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
            fill,
            nnz: a.nnz(),
        })
    }

    /// The arrays: block row pointers, block columns and the row-major
    /// blocks, fill included.
    pub fn raw_parts(&self) -> (&[usize], &[u32], &[f64]) {
        (&self.brow_ptr, &self.bcol_idx, &self.blocks)
    }

    /// The blocks holding fill, ascending, each with the mask of the entries
    /// the scalar pattern holds (bit `i·B + j`).
    pub fn fill(&self) -> &[(u32, u16)] {
        &self.fill
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

    /// Stored entries of the scalar pattern (fill-in excluded).
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Number of stored blocks (each holds `B²` values).
    pub fn n_blocks(&self) -> usize {
        self.bcol_idx.len()
    }

    /// Fill-in ratio: stored block entries over scalar-pattern entries (1.0
    /// means the scalar pattern is perfectly node-blocked).
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

    /// Heap bytes the four arrays hold.
    pub fn bytes(&self) -> usize {
        self.brow_ptr.len() * size_of::<usize>()
            + self.bcol_idx.len() * size_of::<u32>()
            + self.blocks.len() * size_of::<f64>()
            + self.fill.len() * size_of::<(u32, u16)>()
    }

    /// The mask of block `k`, for ascending `k` from `lo` on: full, except
    /// the blocks listed in `fill`.
    pub(crate) fn masks_from(&self, lo: usize) -> impl FnMut(usize) -> u16 + '_ {
        let mut fill = &self.fill[self.fill.partition_point(|f| (f.0 as usize) < lo)..];
        let full = full_mask(self.b);
        move |k| match fill.first() {
            Some(&(at, mask)) if at as usize == k => {
                fill = &fill[1..];
                mask
            }
            _ => full,
        }
    }

    /// `A ← D A D` in place: every stored value becomes `a_rc·(d_r·d_c)`,
    /// the expression of [`CsrMatrix::scale_symmetric`], so the blocks hold
    /// the bits a scaled CSR copy would (fill stays zero).
    ///
    /// # Panics
    /// Panics if `d` does not match the (square) dimension.
    pub fn scale_symmetric(&mut self, d: &[f64]) {
        assert_eq!(self.n_rows, self.n_cols, "scale_symmetric: square only");
        assert_eq!(d.len(), self.n_rows, "scale_symmetric: d length mismatch");
        let b = self.b;
        for br in 0..self.n_block_rows() {
            let (lo, hi) = (self.brow_ptr[br], self.brow_ptr[br + 1]);
            let blocks = self.blocks[lo * b * b..hi * b * b].chunks_exact_mut(b * b);
            for (&bc, block) in self.bcol_idx[lo..hi].iter().zip(blocks) {
                let dc = &d[bc as usize * b..][..b];
                for (i, row) in block.chunks_exact_mut(b).enumerate() {
                    let dr = d[br * b + i];
                    for (v, &dc) in row.iter_mut().zip(dc) {
                        *v *= dr * dc;
                    }
                }
            }
        }
    }

    /// Every diagonal entry `a_rr + α·m_r`.
    pub(crate) fn add_diagonal(&mut self, alpha: f64, m: &[f64]) {
        let b = self.b;
        for (br, mr) in m.chunks_exact(b).enumerate() {
            let (lo, hi) = (self.brow_ptr[br], self.brow_ptr[br + 1]);
            let k = lo
                + (self.bcol_idx[lo..hi].binary_search(&(br as u32)))
                    .expect("a stored diagonal block");
            let block = &mut self.blocks[k * b * b..][..b * b];
            for (i, &mi) in mr.iter().enumerate() {
                block[i * b + i] += alpha * mi;
            }
        }
    }

    /// Row-wise absolute sums `‖a_r‖₁` over the scalar pattern, in column
    /// order: the bits [`CsrMatrix::row_abs_sums`] gives the same matrix.
    pub fn row_abs_sums(&self) -> Vec<f64> {
        (0..self.n_rows)
            .map(|r| self.row_entries(r).map(|(_, v)| v.abs()).sum())
            .collect()
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

    /// [`SparseRows::row_dot`] at block size `B`: the scalar pattern of row
    /// `r`, one add at a time in column order.
    #[inline(always)]
    fn row_dot_b<const B: usize>(&self, r: usize, z: &[f64]) -> f64 {
        let (br, i) = (r / B, r % B);
        let (lo, hi) = (self.brow_ptr[br], self.brow_ptr[br + 1]);
        let blocks = self.blocks[lo * B * B..hi * B * B].chunks_exact(B * B);
        let (mut mask_of, full) = (self.masks_from(lo), full_mask(B));
        let mut acc = 0.0;
        for (k, (&bc, block)) in (lo..).zip(self.bcol_idx[lo..hi].iter().zip(blocks)) {
            let (mask, zs) = (mask_of(k), &z[bc as usize * B..][..B]);
            for j in (0..B).filter(|&j| mask == full || mask >> (i * B + j) & 1 != 0) {
                acc += block[i * B + j] * zs[j];
            }
        }
        acc
    }

    /// [`SparseRows::mul_panel`] at block size `B`: a block row's `B`
    /// rows, [`PANEL_STRIP`] columns at a time, summed in registers across
    /// the row's blocks and stored once.
    #[inline(always)]
    fn mul_panel_b<const B: usize>(&self, z: &[f64], k: usize, y: &mut [f64]) {
        let rows = y[..self.n_rows * k].chunks_exact_mut(B * k);
        for (br, yb) in rows.enumerate() {
            let blocks = self.brow_ptr[br]..self.brow_ptr[br + 1];
            let mut c0 = 0;
            while c0 + PANEL_STRIP <= k {
                self.panel_strip::<B, PANEL_STRIP>(blocks.clone(), z, k, c0, yb);
                c0 += PANEL_STRIP;
            }
            match k - c0 {
                0 => {}
                1 => self.panel_strip::<B, 1>(blocks, z, k, c0, yb),
                2 => self.panel_strip::<B, 2>(blocks, z, k, c0, yb),
                _ => self.panel_strip::<B, 3>(blocks, z, k, c0, yb),
            }
        }
    }

    /// Columns `c0..c0 + W` of one block row of [`SparseRows::mul_panel`]
    /// into `yb` (the row's `B` rows of `k`): entry `(i, c)` is the chain
    /// `0 + a_ij z_jc + …` over the blocks in stored order and, within a
    /// block, the kept entries (the mask's; fill left out) in column order
    /// — the chain of [`SparseRows::row_dot`], one add at a time.
    #[inline(always)]
    fn panel_strip<const B: usize, const W: usize>(
        &self,
        blocks: std::ops::Range<usize>,
        z: &[f64],
        k: usize,
        c0: usize,
        yb: &mut [f64],
    ) {
        let mut acc = [[0.0; W]; B];
        let (mut mask_of, full) = (self.masks_from(blocks.start), full_mask(B));
        for kb in blocks {
            let (mask, bc) = (mask_of(kb), self.bcol_idx[kb] as usize);
            let a = &self.blocks[kb * B * B..][..B * B];
            let zs: [&[f64]; B] = std::array::from_fn(|j| &z[(bc * B + j) * k + c0..][..W]);
            for (i, acc) in acc.iter_mut().enumerate() {
                for (j, zj) in zs.iter().enumerate() {
                    if mask == full || mask >> (i * B + j) & 1 != 0 {
                        for (o, &zc) in acc.iter_mut().zip(zj.iter()) {
                            *o += a[i * B + j] * zc;
                        }
                    }
                }
            }
        }
        for (i, acc) in acc.iter().enumerate() {
            yb[i * k + c0..][..W].copy_from_slice(acc);
        }
    }

    /// [`SparseRows::mul_panel_row`] at block size `B`.
    #[inline(always)]
    fn mul_panel_row_b<const B: usize>(&self, r: usize, z: &[f64], k: usize, y: &mut [f64]) {
        let (br, i) = (r / B, r % B);
        let (lo, hi) = (self.brow_ptr[br], self.brow_ptr[br + 1]);
        let blocks = self.blocks[lo * B * B..hi * B * B].chunks_exact(B * B);
        let (mut mask_of, yr) = (self.masks_from(lo), &mut y[..k]);
        yr.fill(0.0);
        for (kb, (&bc, block)) in (lo..).zip(self.bcol_idx[lo..hi].iter().zip(blocks)) {
            let zb = &z[bc as usize * B * k..][..B * k];
            block_row_panel::<B>(yr, &block[i * B..][..B], zb, k, mask_of(kb) >> (i * B));
        }
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

impl SparseRows for BcsrMatrix {
    fn n_rows(&self) -> usize {
        self.n_rows
    }

    fn n_cols(&self) -> usize {
        self.n_cols
    }

    fn row_entries(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (b, br) = (self.b, r / self.b);
        let (lo, hi) = (self.brow_ptr[br], self.brow_ptr[br + 1]);
        RowEntries {
            b,
            shift: (r % b) * b,
            lo,
            bcols: &self.bcol_idx[lo..hi],
            blocks: &self.blocks[lo * b * b..hi * b * b],
            mask_of: self.masks_from(lo),
            k: 0,
            bits: 0,
        }
    }

    fn row_dot(&self, r: usize, z: &[f64]) -> f64 {
        match self.b {
            2 => self.row_dot_b::<2>(r, z),
            _ => self.row_dot_b::<3>(r, z),
        }
    }

    fn mul_panel(&self, z: &[f64], k: usize, y: &mut [f64]) {
        match (k, self.b) {
            (0, _) => {}
            // One column: each row's dot in registers.
            (1, _) => (y[..self.n_rows].iter_mut().enumerate()).for_each(|(r, yr)| {
                *yr = self.row_dot(r, z);
            }),
            (_, 2) => self.mul_panel_b::<2>(z, k, y),
            _ => self.mul_panel_b::<3>(z, k, y),
        }
    }

    fn mul_panel_row(&self, r: usize, z: &[f64], k: usize, y: &mut [f64]) {
        match self.b {
            2 => self.mul_panel_row_b::<2>(r, z, k, y),
            _ => self.mul_panel_row_b::<3>(r, z, k, y),
        }
    }

    fn diagonal(&self) -> Vec<f64> {
        BcsrMatrix::diagonal(self)
    }

    fn node_blocks(&self) -> Option<&BcsrMatrix> {
        Some(self)
    }

    fn nnz(&self) -> usize {
        self.nnz
    }

    fn row_len(&self, r: usize) -> usize {
        let (b, br, i) = (self.b, r / self.b, r % self.b);
        let row_bits = ((1u16 << b) - 1) << (i * b);
        let (lo, hi) = (self.brow_ptr[br], self.brow_ptr[br + 1]);
        // Every block holds `b` entries of the row, less what fill leaves out.
        let from = self.fill.partition_point(|f| (f.0 as usize) < lo);
        let fill = self.fill[from..].iter().take_while(|f| (f.0 as usize) < hi);
        let missing: usize = fill
            .map(|&(_, mask)| b - (mask & row_bits).count_ones() as usize)
            .sum();
        b * (hi - lo) - missing
    }
}

/// Panel columns [`BcsrMatrix::mul_panel`](SparseRows::mul_panel) keeps in
/// registers per block row: `B × 4` sums.
const PANEL_STRIP: usize = 4;

/// All `B²` entries of a block in the scalar pattern.
fn full_mask(b: usize) -> u16 {
    (1 << (b * b)) - 1
}

/// One block's contribution to one row of a panel product: `y_c += a_j ·
/// z_j[c]` for each of the row's `B` entries `a` the low `B` bits of `mask`
/// keep (the pattern's; fill left out), in column order, for every column
/// `c` of the panel rows `zb` (`B` rows of `k`) — one add per entry, the
/// order [`SparseRows::row_dot`] takes.
#[inline(always)]
fn block_row_panel<const B: usize>(y: &mut [f64], a: &[f64], zb: &[f64], k: usize, mask: u16) {
    let zs: [&[f64]; B] = std::array::from_fn(|j| &zb[j * k..][..k]);
    let row = (1 << B) - 1;
    if mask & row == row {
        for (c, yc) in y.iter_mut().enumerate() {
            let mut t = *yc;
            for j in 0..B {
                t += a[j] * zs[j][c];
            }
            *yc = t;
        }
    } else {
        for j in (0..B).filter(|&j| mask >> j & 1 != 0) {
            axpy_row(y, a[j], zs[j]);
        }
    }
}

/// The scalar-pattern entries of one row of a block row: the set bits of
/// each block's mask in that row, lowest first.
struct RowEntries<'a, M> {
    b: usize,
    /// `i·B` for scalar row `i` of the block row.
    shift: usize,
    /// Index of the block row's first block.
    lo: usize,
    bcols: &'a [u32],
    blocks: &'a [f64],
    mask_of: M,
    /// The next block to load, and the unvisited entries of the current one.
    k: usize,
    bits: u16,
}

impl<M: FnMut(usize) -> u16> Iterator for RowEntries<'_, M> {
    type Item = (usize, f64);

    #[inline]
    fn next(&mut self) -> Option<(usize, f64)> {
        while self.bits == 0 {
            if self.k == self.bcols.len() {
                return None;
            }
            let mask = (self.mask_of)(self.lo + self.k);
            self.bits = (mask >> self.shift) & ((1 << self.b) - 1);
            self.k += 1;
        }
        let j = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        let k = self.k - 1;
        let v = self.blocks[k * self.b * self.b + self.shift + j];
        Some((self.bcols[k] as usize * self.b + j, v))
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
            assert_eq!(CsrMatrix::from_rows(&blocks).to_dense(), a.to_dense());
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
            assert_eq!(CsrMatrix::from_rows(&blocks).to_dense(), a.to_dense());
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
            let mut blocks = BcsrMatrix::from_csr(&a, b).unwrap();
            blocks.scale_symmetric(&d);
            assert_eq!(CsrMatrix::from_rows(&blocks).to_dense(), scaled.to_dense());
            assert_eq!(blocks, BcsrMatrix::from_csr(&scaled, b).unwrap());
        }
    }

    #[test]
    fn rows_walk_the_scalar_pattern_with_the_fill_left_out() {
        for b in [2, 3] {
            let a = partial_blocks(12);
            let blocks = BcsrMatrix::from_csr(&a, b).unwrap();
            assert_eq!(CsrMatrix::from_rows(&blocks), a);
            assert_eq!(blocks.row_abs_sums(), a.row_abs_sums());
            for r in 0..a.n_rows() {
                assert_eq!(blocks.row_len(r), a.row(r).0.len());
                for c in 0..a.n_cols() {
                    assert_eq!(SparseRows::get(&blocks, r, c), a.get(r, c));
                }
            }
        }
    }

    #[test]
    fn raw_parts_rebuild_the_copied_matrix() {
        let a = partial_blocks(12);
        let c = BcsrMatrix::from_csr(&a, 3).unwrap();
        let rebuilt = BcsrMatrix::from_raw_parts(
            3,
            12,
            c.brow_ptr.clone(),
            c.bcol_idx.clone(),
            c.blocks.clone(),
            c.fill.clone(),
        );
        assert_eq!(rebuilt, c);
        assert_eq!(rebuilt.nnz(), a.nnz());
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
