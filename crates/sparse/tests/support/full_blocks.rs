//! The full-storage node-block kernels — both block triangles stored, every
//! row read from its own blocks — as the test reference the upper-triangle
//! `BcsrMatrix` must reproduce bit for bit on a symmetric matrix: its SpMV
//! association, its row chains and its panel products.

// Each includer reads the kernels it checks.
#![allow(dead_code)]

use parfem_sparse::CsrMatrix;

/// A square matrix in `b × b` blocks, both triangles, with the mask of the
/// entries the scalar pattern holds per block (bit `i·b + j`).
pub struct FullBlocks {
    pub b: usize,
    pub brow_ptr: Vec<usize>,
    pub bcol_idx: Vec<usize>,
    pub blocks: Vec<f64>,
    pub masks: Vec<u16>,
}

impl FullBlocks {
    /// The blocks of `a` (`b` divides its dimension), fill zero.
    pub fn from_csr(a: &CsrMatrix, b: usize) -> Self {
        let nb = a.n_rows() / b;
        let (mut brow_ptr, mut bcol_idx, mut blocks, mut masks) = (vec![0], vec![], vec![], vec![]);
        for br in 0..nb {
            let mut cols: Vec<usize> = (0..b)
                .flat_map(|i| a.row(br * b + i).0.iter().map(|&c| c / b))
                .collect();
            cols.sort_unstable();
            cols.dedup();
            for bc in cols {
                let (mut block, mut mask) = (vec![0.0; b * b], 0u16);
                for i in 0..b {
                    let (cs, vs) = a.row(br * b + i);
                    for (&c, &v) in cs.iter().zip(vs).filter(|(&c, _)| c / b == bc) {
                        block[i * b + c % b] = v;
                        mask |= 1 << (i * b + c % b);
                    }
                }
                bcol_idx.push(bc);
                blocks.extend(block);
                masks.push(mask);
            }
            brow_ptr.push(bcol_idx.len());
        }
        FullBlocks {
            b,
            brow_ptr,
            bcol_idx,
            blocks,
            masks,
        }
    }

    fn n(&self) -> usize {
        (self.brow_ptr.len() - 1) * self.b
    }

    /// The block kernel: each row accumulates block by block in column
    /// order, each block contributing `((b₀·x₀ + b₁·x₁) + b₂·x₂)` in one
    /// add, fill zeros included.
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        let b = self.b;
        let mut y = vec![0.0; self.n()];
        for br in 0..self.brow_ptr.len() - 1 {
            let mut acc = vec![0.0; b];
            for k in self.brow_ptr[br]..self.brow_ptr[br + 1] {
                let (block, xs) = (
                    &self.blocks[k * b * b..][..b * b],
                    &x[self.bcol_idx[k] * b..],
                );
                for i in 0..b {
                    let mut t = block[i * b] * xs[0];
                    for j in 1..b {
                        t += block[i * b + j] * xs[j];
                    }
                    acc[i] += t;
                }
            }
            y[br * b..][..b].copy_from_slice(&acc);
        }
        y
    }

    /// The kept entries of row `r`, ascending by column.
    pub fn row_entries(&self, r: usize) -> Vec<(usize, f64)> {
        let (b, br, i) = (self.b, r / self.b, r % self.b);
        let mut out = Vec::new();
        for k in self.brow_ptr[br]..self.brow_ptr[br + 1] {
            for j in (0..b).filter(|&j| self.masks[k] >> (i * b + j) & 1 != 0) {
                out.push((self.bcol_idx[k] * b + j, self.blocks[k * b * b + i * b + j]));
            }
        }
        out
    }

    /// `Σ a_rj z_j` over row `r`'s kept entries, one add at a time.
    pub fn row_dot(&self, r: usize, z: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (j, v) in self.row_entries(r) {
            acc += v * z[j];
        }
        acc
    }

    /// `‖a_r‖₁` of every row over the kept entries, in column order.
    pub fn row_abs_sums(&self) -> Vec<f64> {
        let sum = |r| self.row_entries(r).into_iter().map(|(_, v)| v.abs()).sum();
        (0..self.n()).map(sum).collect()
    }

    /// The main diagonal (0 where a diagonal block is not stored).
    pub fn diagonal(&self) -> Vec<f64> {
        let b = self.b;
        let mut d = vec![0.0; self.n()];
        for br in 0..self.brow_ptr.len() - 1 {
            for k in (self.brow_ptr[br]..self.brow_ptr[br + 1]).filter(|&k| self.bcol_idx[k] == br)
            {
                for i in 0..b {
                    d[br * b + i] = self.blocks[k * b * b + i * b + i];
                }
            }
        }
        d
    }

    /// Row `r` of the panel product `A Z` (`k` columns): per column, the
    /// chain of [`FullBlocks::row_dot`].
    pub fn mul_panel_row(&self, r: usize, z: &[f64], k: usize) -> Vec<f64> {
        let mut y = vec![0.0; k];
        for (j, v) in self.row_entries(r) {
            for (c, yc) in y.iter_mut().enumerate() {
                *yc += v * z[j * k + c];
            }
        }
        y
    }
}
