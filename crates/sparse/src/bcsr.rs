//! Block-CSR storage of a symmetric matrix: the upper block triangle of its
//! `B × B` node blocks, `B ∈ {2, 3}`.
//!
//! A finite-element discretization with `B` DOFs per node (2-D elasticity:
//! `u_x`, `u_y`; 3-D: `u_x`, `u_y`, `u_z`) numbers a node's DOFs
//! consecutively, so every entry coupling node `a` to node `b` lands in the
//! same `B × B` block as its companions. Storing those blocks contiguously
//! cuts the index metadata to one `u32` block column per `B²` values and
//! turns the inner SpMV loop into a dense `y_a += K_ab x_b` update that loads
//! each `x` value once per block instead of once per entry.
//!
//! The matrices stored here are symmetric bit for bit (the element kernels
//! mirror the upper triangle of every element matrix, and assembly and
//! symmetric scaling keep the symmetry), so only the blocks `(r, c)` with
//! `c ≥ r` are stored: the diagonal blocks whole, the block `(c, r)` below
//! the diagonal as the transpose of the stored `(r, c)`. Each block row `r`
//! also keeps a transposed index — the block rows `c < r` that store a block
//! `(c, r)`, ascending, 4 B each — through which every full-row read
//! ([`SparseRows::row_entries`], [`SparseRows::row_dot`],
//! [`SparseRows::mul_panel_row`], [`BcsrMatrix::spmv_block_rows`]) reaches
//! the row's blocks left of the diagonal.
//!
//! The element assembly scatters straight into this format
//! ([`BcsrMatrix::from_raw_parts`]); [`BcsrMatrix::from_csr`] copies a
//! symmetric CSR matrix into it. Blocks are filled with explicit zeros where
//! the scalar pattern is incomplete — the lone diagonal of a constrained
//! DOF, the columns dropped next to one — and the few blocks holding fill
//! carry a mask of the entries the scalar pattern holds, so [`SparseRows`]
//! walks exactly that pattern ([`BcsrMatrix::fill_ratio`], 1.001–1.002 on
//! the workspace's meshes). [`BcsrMatrix::nnz`] and
//! [`BcsrMatrix::spmv_flops`] count the full scalar pattern, both triangles:
//! the flop charges do not depend on the storage, and the fill is storage,
//! not work the model charges. [`BcsrMatrix::bytes`] counts what is stored.
//!
//! Reduction-order contract: a row accumulates block by block in ascending
//! block column, each block contributing `((b₀·x₀ + b₁·x₁) + b₂·x₂)` in one
//! add — a different association than the CSR kernels' four-partial tree,
//! so block SpMV agrees with [`crate::CsrMatrix::spmv_into`] to the
//! reassociation bound `c·ε·Σ|aᵢⱼ xⱼ|`, not bit for bit. The SpMV is
//! *push–pull*: block rows run in ascending order; `y_r` starts from what
//! the earlier rows pushed into it — each stored block `(c, r)`, `c < r`,
//! pushes `Bᵀ x_c` when row `c` runs — and then adds its own blocks in
//! column order. The pushes into `y_r` arrive in ascending `c`, so every row
//! sees its blocks in the order a full-storage row would, and on a bitwise
//! symmetric matrix the product has the bits of the full-storage one. Any
//! partition of the block rows over [`BcsrMatrix::spmv_block_rows`] calls
//! (which pull each listed row through the transposed index) produces the
//! same bits. The panel product [`SparseRows::mul_panel`] pushes the same
//! way, keeping [`SparseRows::row_dot`]'s chain of one add per entry.

use crate::csr::CsrMatrix;
use crate::op::LinearOperator;
use crate::rows::{axpy_row, SparseRows};

/// The upper block triangle of a symmetric matrix in `B × B` block-CSR
/// format. Build with [`BcsrMatrix::from_raw_parts`] or
/// [`BcsrMatrix::from_csr`].
#[derive(Debug, Clone, PartialEq)]
pub struct BcsrMatrix {
    /// Block edge `B` (2 or 3).
    b: usize,
    /// Scalar row (and column) count, a multiple of `B`.
    n_rows: usize,
    /// Per-block-row offsets into `bcol_idx` (and, times `B²`, `blocks`).
    brow_ptr: Vec<usize>,
    /// Block column indices `c ≥ r` of block row `r` (scalar columns
    /// `B·c .. B·c + B`), ascending: the diagonal block first when stored.
    bcol_idx: Vec<u32>,
    /// Row-major `B × B` blocks, back to back.
    blocks: Vec<f64>,
    /// The blocks holding fill, ascending by block index, each with its
    /// mask: bit `i·B + j` set where the scalar pattern stores entry
    /// `(i, j)`. Every other block is full. Fill sits next to constrained
    /// DOFs only, so the list is short.
    fill: Vec<(u32, u16)>,
    /// Per-block-row offsets into `lower`.
    lower_ptr: Vec<usize>,
    /// The transposed index: for block row `r`, the block rows `c < r`
    /// whose stored block `(c, r)` holds row `r`'s blocks left of the
    /// diagonal, ascending.
    lower: Vec<u32>,
    /// Entries of the full scalar pattern, both triangles (fill excluded).
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

/// `a` equals its transpose, pattern and value bits.
fn is_bitwise_symmetric(a: &CsrMatrix) -> bool {
    let t = a.transpose();
    let ((ap, ac, av), (tp, tc, tv)) = (a.raw_parts(), t.raw_parts());
    ap == tp && ac == tc && av.iter().zip(tv).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The transposed index of an upper block pattern: per block row `r`, the
/// block rows `c < r` with a stored block `(c, r)`, ascending.
fn transposed_index(brow_ptr: &[usize], bcol_idx: &[u32]) -> (Vec<usize>, Vec<u32>) {
    let nb = brow_ptr.len() - 1;
    let mut ptr = vec![0usize; nb + 1];
    let above =
        |br: usize, row: &[usize]| (row[0]..row[1]).filter(move |&k| bcol_idx[k] as usize != br);
    for (br, row) in brow_ptr.windows(2).enumerate() {
        for k in above(br, row) {
            ptr[bcol_idx[k] as usize + 1] += 1;
        }
    }
    for r in 0..nb {
        ptr[r + 1] += ptr[r];
    }
    let (mut next, mut lower) = (ptr[..nb].to_vec(), vec![0u32; ptr[nb]]);
    for (br, row) in brow_ptr.windows(2).enumerate() {
        for k in above(br, row) {
            let bc = bcol_idx[k] as usize;
            lower[next[bc]] = br as u32;
            next[bc] += 1;
        }
    }
    (ptr, lower)
}

impl BcsrMatrix {
    /// A symmetric block matrix from the arrays of its upper block
    /// triangle: `n_rows` scalar rows in `n_rows / b` block rows,
    /// `brow_ptr`/`bcol_idx` the block pattern (block columns `c ≥ r`
    /// ascending within row `r`), `blocks` the row-major `b × b` blocks and
    /// `fill` the blocks that are not full, ascending, each with the mask
    /// of the entries the scalar pattern holds (bit `i·b + j`; the others
    /// must be zero). A diagonal block must be symmetric itself, and so
    /// must the mask of any block on the diagonal.
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
        assert!(
            (brow_ptr.windows(2).enumerate()).all(|(br, row)| bcol_idx[row[0]..row[1]]
                .first()
                .is_none_or(|&c| c as usize >= br)),
            "the upper block triangle only"
        );
        let (lower_ptr, lower) = transposed_index(&brow_ptr, &bcol_idx);
        let mut a = BcsrMatrix {
            b,
            n_rows,
            brow_ptr,
            bcol_idx,
            blocks,
            fill,
            lower_ptr,
            lower,
            nnz: 0,
        };
        a.nnz = a.count_entries();
        a
    }

    /// The entries of the full scalar pattern: a stored block's kept
    /// entries once on the diagonal, twice above it.
    fn count_entries(&self) -> usize {
        let mut mask_of = self.masks_from(0);
        let mut nnz = 0;
        for br in 0..self.n_block_rows() {
            for k in self.brow_ptr[br]..self.brow_ptr[br + 1] {
                let both = 1 + usize::from(self.bcol_idx[k] as usize != br);
                nnz += both * mask_of(k).count_ones() as usize;
            }
        }
        nnz
    }

    /// Copies the upper block triangle of a symmetric CSR matrix into
    /// `b × b` blocks: the reference the directly assembled blocks are
    /// checked against. `None` unless `b` is 2 or 3 and divides the
    /// dimension, and `a` equals its transpose bit for bit (the blocks
    /// below the diagonal are not stored).
    ///
    /// # Panics
    /// Panics if a block column index does not fit in `u32`.
    pub fn from_csr(a: &CsrMatrix, b: usize) -> Option<Self> {
        if !matches!(b, 2 | 3) || !a.n_rows().is_multiple_of(b) || !is_bitwise_symmetric(a) {
            return None;
        }
        assert!(a.n_cols() / b <= u32::MAX as usize, "block column overflow");
        let (row_ptr, col_idx, values) = a.raw_parts();
        let nb = a.n_rows() / b;
        let mut brow_ptr = Vec::with_capacity(nb + 1);
        brow_ptr.push(0usize);
        let mut n_blocks = 0usize;
        for br in 0..nb {
            merge_block_row(b, br, row_ptr, col_idx, |bc, _| {
                n_blocks += usize::from(bc >= br)
            });
            brow_ptr.push(n_blocks);
        }
        let mut bcol_idx: Vec<u32> = Vec::with_capacity(n_blocks);
        let mut blocks = vec![0.0; n_blocks * b * b];
        let mut fill = Vec::new();
        for br in 0..nb {
            merge_block_row(b, br, row_ptr, col_idx, |bc, ranges| {
                if bc < br {
                    return;
                }
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
        Some(Self::from_raw_parts(
            b,
            a.n_rows(),
            brow_ptr,
            bcol_idx,
            blocks,
            fill,
        ))
    }

    /// The arrays of the upper block triangle: block row pointers, block
    /// columns and the row-major blocks, fill included.
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

    /// Scalar column count (the matrix is square).
    pub fn n_cols(&self) -> usize {
        self.n_rows
    }

    /// Number of block rows (`n_rows / B`).
    pub fn n_block_rows(&self) -> usize {
        self.brow_ptr.len() - 1
    }

    /// Entries of the full scalar pattern, both triangles (fill excluded).
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Number of stored blocks, the upper block triangle (each holds `B²`
    /// values).
    pub fn n_blocks(&self) -> usize {
        self.bcol_idx.len()
    }

    /// Fill-in ratio: the entries of the full matrix's blocks over its
    /// scalar-pattern entries (1.0 means the scalar pattern is perfectly
    /// node-blocked).
    pub fn fill_ratio(&self) -> f64 {
        if self.nnz == 0 {
            return 1.0;
        }
        let off_diagonal = self.lower.len();
        ((self.n_blocks() + off_diagonal) * self.b * self.b) as f64 / self.nnz as f64
    }

    /// Flops of one SpMV over the full scalar pattern (fill-in excluded,
    /// matching [`CsrMatrix::spmv_flops`] on the symmetric source matrix).
    pub fn spmv_flops(&self) -> u64 {
        2 * self.nnz as u64
    }

    /// Heap bytes the arrays hold: the upper block triangle, its fill masks
    /// and the transposed index.
    pub fn bytes(&self) -> usize {
        (self.brow_ptr.len() + self.lower_ptr.len()) * size_of::<usize>()
            + (self.bcol_idx.len() + self.lower.len()) * size_of::<u32>()
            + self.blocks.len() * size_of::<f64>()
            + self.fill.len() * size_of::<(u32, u16)>()
    }

    /// The transposed index of block row `br`: the block rows `c < br`
    /// storing a block `(c, br)`, ascending.
    fn lower_rows(&self, br: usize) -> &[u32] {
        &self.lower[self.lower_ptr[br]..self.lower_ptr[br + 1]]
    }

    /// The blocks of block row `br` left of the diagonal, through the
    /// transposed index: each block row `c < br` storing a block `(c, br)`,
    /// ascending, with where that block lies.
    pub(crate) fn lower(&self, br: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        (self.lower_rows(br).iter()).map(move |&c| (c as usize, self.block_at(c as usize, br)))
    }

    /// Where the stored block `(c, r)`, `c < r`, lies: a search of row
    /// `c`'s few block columns.
    #[inline]
    fn block_at(&self, c: usize, r: usize) -> usize {
        let (lo, hi) = (self.brow_ptr[c], self.brow_ptr[c + 1]);
        lo + (self.bcol_idx[lo..hi].binary_search(&(r as u32))).expect("a stored block")
    }

    /// The mask of block `k` (full unless listed in `fill`).
    #[inline]
    pub(crate) fn mask_at(&self, k: usize) -> u16 {
        match self.fill.binary_search_by_key(&(k as u32), |f| f.0) {
            Ok(at) => self.fill[at].1,
            Err(_) => full_mask(self.b),
        }
    }

    /// Row `i` of the transpose of stored block `k`: bit `j` set where the
    /// scalar pattern holds the block's entry `(j, i)`.
    #[inline]
    pub(crate) fn transposed_mask_row(&self, k: usize, i: usize) -> u16 {
        let (mask, b) = (self.mask_at(k), self.b);
        (0..b).fold(0, |bits, j| bits | (mask >> (j * b + i) & 1) << j)
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
    /// the bits a scaled CSR copy would (fill stays zero), and the matrix
    /// stays symmetric bit for bit (`d_r·d_c = d_c·d_r`).
    ///
    /// # Panics
    /// Panics if `d` does not match the dimension.
    pub fn scale_symmetric(&mut self, d: &[f64]) {
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

    /// The diagonal block of block row `br`, when stored: the row's first.
    fn diagonal_block(&self, br: usize) -> Option<usize> {
        let k = self.brow_ptr[br];
        (k < self.brow_ptr[br + 1] && self.bcol_idx[k] as usize == br).then_some(k)
    }

    /// Every diagonal entry `a_rr + α·m_r`.
    pub(crate) fn add_diagonal(&mut self, alpha: f64, m: &[f64]) {
        let b = self.b;
        for (br, mr) in m.chunks_exact(b).enumerate() {
            let k = self.diagonal_block(br).expect("a stored diagonal block");
            let block = &mut self.blocks[k * b * b..][..b * b];
            for (i, &mi) in mr.iter().enumerate() {
                block[i * b + i] += alpha * mi;
            }
        }
    }

    /// Row-wise absolute sums `‖a_r‖₁` over the scalar pattern, in column
    /// order: the bits [`CsrMatrix::row_abs_sums`] gives the same matrix.
    /// One sweep of the stored blocks, each block `(r, c)` above the
    /// diagonal adding its transpose's entries to the rows of `c` — in
    /// ascending `r`, before row `c` adds its own.
    pub fn row_abs_sums(&self) -> Vec<f64> {
        // The start `Iterator::sum` folds from, so every row has the bits
        // of its entries' `sum()`.
        let zero: f64 = std::iter::empty::<f64>().sum();
        let (b, mut mask_of) = (self.b, self.masks_from(0));
        let mut sums = vec![zero; self.n_rows];
        for br in 0..self.n_block_rows() {
            for k in self.brow_ptr[br]..self.brow_ptr[br + 1] {
                let (mask, bc) = (mask_of(k), self.bcol_idx[k] as usize);
                let block = &self.blocks[k * b * b..][..b * b];
                let kept = |i: usize, j: usize| mask >> (i * b + j) & 1 != 0;
                for i in 0..b {
                    for j in (0..b).filter(|&j| kept(i, j)) {
                        sums[br * b + i] += block[i * b + j].abs();
                    }
                }
                if bc != br {
                    for j in 0..b {
                        for i in (0..b).filter(|&i| kept(i, j)) {
                            sums[bc * b + j] += block[i * b + j].abs();
                        }
                    }
                }
            }
        }
        sums
    }

    /// The main diagonal (0 where a diagonal block is not stored).
    pub fn diagonal(&self) -> Vec<f64> {
        let b = self.b;
        let mut d = vec![0.0; self.n_rows];
        for (br, dr) in d.chunks_exact_mut(b).enumerate() {
            if let Some(k) = self.diagonal_block(br) {
                let block = &self.blocks[k * b * b..][..b * b];
                for (i, di) in dr.iter_mut().enumerate() {
                    *di = block[i * b + i];
                }
            }
        }
        d
    }

    /// The push–pull product `y = A x`: block rows in ascending order, each
    /// loading what earlier rows pushed into it, adding its own blocks in
    /// column order, and pushing `Bᵀ x_r` from every block `(r, c > r)`
    /// into `y_c`.
    #[inline(always)]
    fn push_pull<const B: usize>(&self, x: &[f64], y: &mut [f64]) {
        y.fill(0.0);
        for br in 0..self.n_block_rows() {
            let (lo, hi) = (self.brow_ptr[br], self.brow_ptr[br + 1]);
            let cols = &self.bcol_idx[lo..hi];
            let blocks = self.blocks[lo * B * B..hi * B * B].chunks_exact(B * B);
            let xr: [f64; B] = std::array::from_fn(|i| x[br * B + i]);
            let mut acc: [f64; B] = std::array::from_fn(|i| y[br * B + i]);
            for (&bc, block) in cols.iter().zip(blocks) {
                let bc = bc as usize;
                let xs = &x[bc * B..][..B];
                for i in 0..B {
                    let mut t = block[i * B] * xs[0];
                    for j in 1..B {
                        t += block[i * B + j] * xs[j];
                    }
                    acc[i] += t;
                }
                if bc != br {
                    let yc = &mut y[bc * B..][..B];
                    for j in 0..B {
                        let mut t = block[j] * xr[0];
                        for i in 1..B {
                            t += block[i * B + j] * xr[i];
                        }
                        yc[j] += t;
                    }
                }
            }
            y[br * B..][..B].copy_from_slice(&acc);
        }
    }

    /// `y[B·r .. B·r + B] = (A x)[..]` for every listed block row `r`,
    /// pulled: the blocks left of the diagonal through the transposed index
    /// (transposed), then the row's own, in column order.
    #[inline(always)]
    fn pull<const B: usize>(&self, rows: &[u32], x: &[f64], y: &mut [f64]) {
        for br in rows.iter().map(|&r| r as usize) {
            let mut acc = [0.0; B];
            for (c, k) in self.lower(br) {
                let block = &self.blocks[k * B * B..][..B * B];
                let xs = &x[c * B..][..B];
                for i in 0..B {
                    let mut t = block[i] * xs[0];
                    for j in 1..B {
                        t += block[j * B + i] * xs[j];
                    }
                    acc[i] += t;
                }
            }
            let (lo, hi) = (self.brow_ptr[br], self.brow_ptr[br + 1]);
            let blocks = self.blocks[lo * B * B..hi * B * B].chunks_exact(B * B);
            for (&bc, block) in self.bcol_idx[lo..hi].iter().zip(blocks) {
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
        assert_eq!(x.len(), self.n_rows, "bcsr spmv: x length mismatch");
        assert_eq!(y.len(), self.n_rows, "bcsr spmv: y length mismatch");
    }

    /// Column `i` of block `k` as a row of its transpose: the entries
    /// `(j, i)` for `j` ascending, and the bits of the ones the mask keeps.
    #[inline(always)]
    fn transposed_row<const B: usize>(&self, k: usize, i: usize) -> ([f64; B], u16) {
        let block = &self.blocks[k * B * B..][..B * B];
        (
            std::array::from_fn(|j| block[j * B + i]),
            self.transposed_mask_row(k, i),
        )
    }

    /// [`SparseRows::row_dot`] at block size `B`: the scalar pattern of row
    /// `r`, one add at a time in column order — the blocks left of the
    /// diagonal through the transposed index, then the row's own.
    #[inline(always)]
    fn row_dot_b<const B: usize>(&self, r: usize, z: &[f64]) -> f64 {
        let (br, i) = (r / B, r % B);
        let mut acc = 0.0;
        for (c, k) in self.lower(br) {
            let (a, bits) = self.transposed_row::<B>(k, i);
            let zs = &z[c * B..][..B];
            for j in (0..B).filter(|&j| bits >> j & 1 != 0) {
                acc += a[j] * zs[j];
            }
        }
        let (lo, hi) = (self.brow_ptr[br], self.brow_ptr[br + 1]);
        let blocks = self.blocks[lo * B * B..hi * B * B].chunks_exact(B * B);
        let (mut mask_of, full) = (self.masks_from(lo), full_mask(B));
        for (k, (&bc, block)) in (lo..).zip(self.bcol_idx[lo..hi].iter().zip(blocks)) {
            let (mask, zs) = (mask_of(k), &z[bc as usize * B..][..B]);
            for j in (0..B).filter(|&j| mask == full || mask >> (i * B + j) & 1 != 0) {
                acc += block[i * B + j] * zs[j];
            }
        }
        acc
    }

    /// [`SparseRows::mul_panel`] at block size `B`, pushed like the SpMV: a
    /// block row's `B` rows, [`PANEL_STRIP`] columns at a time, start from
    /// what earlier rows pushed, add the row's own blocks and push the
    /// transposes of those right of the diagonal.
    #[inline(always)]
    fn mul_panel_b<const B: usize>(&self, z: &[f64], k: usize, y: &mut [f64]) {
        let y = &mut y[..self.n_rows * k];
        y.fill(0.0);
        for br in 0..self.n_block_rows() {
            let blocks = self.brow_ptr[br]..self.brow_ptr[br + 1];
            let mut c0 = 0;
            while c0 + PANEL_STRIP <= k {
                self.panel_strip::<B, PANEL_STRIP>(br, blocks.clone(), z, k, c0, y);
                c0 += PANEL_STRIP;
            }
            match k - c0 {
                0 => {}
                1 => self.panel_strip::<B, 1>(br, blocks, z, k, c0, y),
                2 => self.panel_strip::<B, 2>(br, blocks, z, k, c0, y),
                _ => self.panel_strip::<B, 3>(br, blocks, z, k, c0, y),
            }
        }
    }

    /// Columns `c0..c0 + W` of block row `br` of [`SparseRows::mul_panel`]:
    /// entry `(i, c)` continues what earlier rows pushed with the chain
    /// `+ a_ij z_jc + …` over the row's own blocks in stored order and,
    /// within a block, the kept entries (the mask's; fill left out) in
    /// column order — the chain of [`SparseRows::row_dot`], one add at a
    /// time. Each block `(br, c > br)` then pushes its transpose's entries
    /// into the rows of `c`, in the same order.
    #[inline(always)]
    fn panel_strip<const B: usize, const W: usize>(
        &self,
        br: usize,
        blocks: std::ops::Range<usize>,
        z: &[f64],
        k: usize,
        c0: usize,
        y: &mut [f64],
    ) {
        let rows = |m: &[f64], r: usize| -> [[f64; W]; B] {
            std::array::from_fn(|i| {
                let row: &[f64; W] = m[(r * B + i) * k + c0..][..W].try_into().expect("W wide");
                *row
            })
        };
        let (mut acc, zr) = (rows(y, br), rows(z, br));
        let (mut mask_of, full) = (self.masks_from(blocks.start), full_mask(B));
        for kb in blocks {
            let (mask, bc) = (mask_of(kb), self.bcol_idx[kb] as usize);
            let kept = |i: usize, j: usize| mask == full || mask >> (i * B + j) & 1 != 0;
            let a = &self.blocks[kb * B * B..][..B * B];
            let zs = rows(z, bc);
            if mask == full {
                for i in 0..B {
                    for j in 0..B {
                        for w in 0..W {
                            acc[i][w] += a[i * B + j] * zs[j][w];
                        }
                    }
                }
            } else {
                for (i, acc) in acc.iter_mut().enumerate() {
                    for (j, zj) in zs.iter().enumerate().filter(|&(j, _)| kept(i, j)) {
                        for (o, &zc) in acc.iter_mut().zip(zj) {
                            *o += a[i * B + j] * zc;
                        }
                    }
                }
            }
            if bc != br {
                let mut pushed = rows(y, bc);
                if mask == full {
                    for j in 0..B {
                        for i in 0..B {
                            for w in 0..W {
                                pushed[j][w] += a[i * B + j] * zr[i][w];
                            }
                        }
                    }
                } else {
                    for (j, yj) in pushed.iter_mut().enumerate() {
                        for (i, zi) in zr.iter().enumerate().filter(|&(i, _)| kept(i, j)) {
                            for (o, &zc) in yj.iter_mut().zip(zi) {
                                *o += a[i * B + j] * zc;
                            }
                        }
                    }
                }
                for (j, yj) in pushed.iter().enumerate() {
                    y[(bc * B + j) * k + c0..][..W].copy_from_slice(yj);
                }
            }
        }
        for (i, acc) in acc.iter().enumerate() {
            y[(br * B + i) * k + c0..][..W].copy_from_slice(acc);
        }
    }

    /// [`SparseRows::mul_panel_row`] at block size `B`: the blocks left of
    /// the diagonal through the transposed index, then the row's own.
    #[inline(always)]
    fn mul_panel_row_b<const B: usize>(&self, r: usize, z: &[f64], k: usize, y: &mut [f64]) {
        let (br, i) = (r / B, r % B);
        let yr = &mut y[..k];
        yr.fill(0.0);
        for (c, kb) in self.lower(br) {
            let (a, bits) = self.transposed_row::<B>(kb, i);
            let zb = &z[c * B * k..][..B * k];
            block_row_panel::<B>(yr, &a, zb, k, bits);
        }
        let (lo, hi) = (self.brow_ptr[br], self.brow_ptr[br + 1]);
        let blocks = self.blocks[lo * B * B..hi * B * B].chunks_exact(B * B);
        let mut mask_of = self.masks_from(lo);
        for (kb, (&bc, block)) in (lo..).zip(self.bcol_idx[lo..hi].iter().zip(blocks)) {
            let zb = &z[bc as usize * B * k..][..B * k];
            block_row_panel::<B>(yr, &block[i * B..][..B], zb, k, mask_of(kb) >> (i * B));
        }
    }

    /// `y = A x`, push–pull (see the module docs).
    ///
    /// # Panics
    /// Panics on dimension mismatches.
    pub fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        self.check_dims(x, y);
        match self.b {
            2 => self.push_pull::<2>(x, y),
            _ => self.push_pull::<3>(x, y),
        }
    }

    /// `y[B·r .. B·r + B] = (A x)[..]` for the listed block rows only, each
    /// pulled through the transposed index; the rest of the full-length `y`
    /// is left alone. Each block row gets the bits
    /// [`BcsrMatrix::spmv_into`] gives it, so computing a partition of the
    /// block rows in any number of calls reproduces the full product bit
    /// for bit — the kernel behind the overlapped distributed matvec.
    ///
    /// # Panics
    /// Panics on dimension mismatches or a block row out of range.
    pub fn spmv_block_rows(&self, x: &[f64], y: &mut [f64], block_rows: &[u32]) {
        self.check_dims(x, y);
        match self.b {
            2 => self.pull::<2>(block_rows, x, y),
            _ => self.pull::<3>(block_rows, x, y),
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
        self.n_rows
    }

    fn row_entries(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (b, br) = (self.b, r / self.b);
        let lo = self.brow_ptr[br];
        RowEntries {
            a: self,
            i: r % b,
            lower: self.lower(br),
            own: lo..self.brow_ptr[br + 1],
            mask_of: self.masks_from(lo),
            col: 0,
            at: 0,
            stride: 0,
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
        let lower = self.lower_rows(br).len();
        // Every block holds `b` entries of the row, less what fill leaves out.
        let from = self.fill.partition_point(|f| (f.0 as usize) < lo);
        let fill = self.fill[from..].iter().take_while(|f| (f.0 as usize) < hi);
        let mut missing: usize = fill
            .map(|&(_, mask)| b - (mask & row_bits).count_ones() as usize)
            .sum();
        if !self.fill.is_empty() {
            missing += (self.lower(br))
                .map(|(_, k)| self.transposed_mask_row(k, i))
                .map(|bits| b - bits.count_ones() as usize)
                .sum::<usize>();
        }
        b * (hi - lo + lower) - missing
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

/// The scalar-pattern entries of one row of a block row: the row's blocks
/// left of the diagonal (each block `(c, br)` read down its column), then
/// its own, each block's kept entries lowest column first.
struct RowEntries<'a, M, L> {
    a: &'a BcsrMatrix,
    /// Scalar row `i` of the block row.
    i: usize,
    /// The blocks left of the diagonal not yet visited, `(c, k)`.
    lower: L,
    /// The row's own blocks not yet visited.
    own: std::ops::Range<usize>,
    mask_of: M,
    /// The current block: its first column, the value of its entry in
    /// column 0 of the row, the step between the row's values, and the
    /// unvisited kept entries.
    col: usize,
    at: usize,
    stride: usize,
    bits: u16,
}

impl<M, L> Iterator for RowEntries<'_, M, L>
where
    M: FnMut(usize) -> u16,
    L: Iterator<Item = (usize, usize)>,
{
    type Item = (usize, f64);

    #[inline]
    fn next(&mut self) -> Option<(usize, f64)> {
        let (a, b) = (self.a, self.a.b);
        while self.bits == 0 {
            if let Some((c, k)) = self.lower.next() {
                self.bits = a.transposed_mask_row(k, self.i);
                (self.col, self.at, self.stride) = (c * b, k * b * b + self.i, b);
            } else if let Some(k) = self.own.next() {
                self.bits = ((self.mask_of)(k) >> (self.i * b)) & ((1 << b) - 1);
                let col = a.bcol_idx[k] as usize * b;
                (self.col, self.at, self.stride) = (col, k * b * b + self.i * b, 1);
            } else {
                return None;
            }
        }
        let j = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some((self.col + j, a.blocks[self.at + j * self.stride]))
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
        // Symmetric block-tridiagonal with full b x b blocks — the
        // elasticity shape.
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
                        let (r, c) = (b * br + i, b * c + j);
                        let v = w + 0.1 * (r.min(c) % 5) as f64 + 0.01 * (r + c) as f64;
                        coo.push(r, c, v).unwrap();
                    }
                }
            }
        }
        coo.to_csr()
    }

    fn partial_blocks(n: usize) -> CsrMatrix {
        // Scalar diagonal pattern plus one far entry per row and its mirror:
        // every block is mostly fill.
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 1.0 + i as f64).unwrap();
            if i + 2 < n {
                coo.push(i, i + 2, -0.5 - 0.1 * i as f64).unwrap();
                coo.push(i + 2, i, -0.5 - 0.1 * i as f64).unwrap();
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
    fn only_a_bitwise_symmetric_matrix_is_stored() {
        let mut coo = CooMatrix::new(4, 4);
        for (r, c, v) in [
            (0, 0, 2.0),
            (1, 1, 2.0),
            (0, 3, 1.0),
            (3, 0, 1.0 + f64::EPSILON),
        ] {
            coo.push(r, c, v).unwrap();
        }
        assert!(BcsrMatrix::from_csr(&coo.to_csr(), 2).is_none());
        let mut coo = CooMatrix::new(4, 4);
        coo.push(0, 3, 1.0).unwrap();
        assert!(BcsrMatrix::from_csr(&coo.to_csr(), 2).is_none());
    }

    #[test]
    fn round_trip_is_exact_on_full_blocks() {
        for b in [2, 3] {
            let a = blocky(9, b);
            let blocks = BcsrMatrix::from_csr(&a, b).unwrap();
            assert_eq!(blocks.fill_ratio(), 1.0);
            // 9 diagonal blocks and 8 above them, and the index of the 8.
            assert_eq!(blocks.n_blocks(), 17);
            assert_eq!(blocks.bytes(), (2 * 10 + 17 * b * b) * 8 + (17 + 8) * 4);
            assert_eq!(blocks.nnz(), a.nnz());
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
