//! Coordinate-format (triplet) sparse matrix accumulator.
//!
//! Finite-element assembly naturally produces duplicate `(row, col)` entries
//! (one per element touching the pair of DOFs); [`CooMatrix::to_csr`] sorts
//! and sums them, which *is* the FEM "assembly" operation `⋃` of the paper's
//! Eq. 2.

use crate::csr::CsrMatrix;
use crate::error::SparseError;

/// A growable sparse matrix in coordinate (triplet) format.
#[derive(Debug, Clone, Default)]
pub struct CooMatrix {
    n_rows: usize,
    n_cols: usize,
    rows: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl CooMatrix {
    /// Creates an empty `n_rows x n_cols` accumulator.
    pub fn new(n_rows: usize, n_cols: usize) -> Self {
        CooMatrix {
            n_rows,
            n_cols,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Creates an empty accumulator with room for `cap` triplets.
    pub fn with_capacity(n_rows: usize, n_cols: usize, cap: usize) -> Self {
        CooMatrix {
            n_rows,
            n_cols,
            rows: Vec::with_capacity(cap),
            cols: Vec::with_capacity(cap),
            vals: Vec::with_capacity(cap),
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Adds `value` at `(row, col)`. Duplicates accumulate on conversion.
    ///
    /// # Errors
    /// Returns [`SparseError::IndexOutOfBounds`] if the position is outside
    /// the matrix shape.
    pub fn push(&mut self, row: usize, col: usize, value: f64) -> Result<(), SparseError> {
        if row >= self.n_rows || col >= self.n_cols {
            return Err(SparseError::IndexOutOfBounds {
                row,
                col,
                n_rows: self.n_rows,
                n_cols: self.n_cols,
            });
        }
        self.rows.push(row);
        self.cols.push(col);
        self.vals.push(value);
        Ok(())
    }

    /// Adds a dense element block: `block` is `dofs.len() x dofs.len()` in
    /// row-major order, scattered to global positions `dofs x dofs`.
    ///
    /// This is the FEM scatter of an element stiffness matrix.
    ///
    /// # Errors
    /// Returns [`SparseError::IndexOutOfBounds`] if any DOF is outside the
    /// matrix shape, and [`SparseError::ShapeMismatch`] if `block` is not
    /// `dofs.len()²` long.
    pub fn push_block(&mut self, dofs: &[usize], block: &[f64]) -> Result<(), SparseError> {
        let n = dofs.len();
        if block.len() != n * n {
            return Err(SparseError::ShapeMismatch {
                context: format!(
                    "push_block: block has {} entries, expected {}",
                    block.len(),
                    n * n
                ),
            });
        }
        for (i, &gi) in dofs.iter().enumerate() {
            for (j, &gj) in dofs.iter().enumerate() {
                self.push(gi, gj, block[i * n + j])?;
            }
        }
        Ok(())
    }

    /// Converts to CSR, sorting triplets by position; duplicates are summed
    /// in push order.
    pub fn to_csr(&self) -> CsrMatrix {
        // Count entries per row (duplicates included) to bucket-sort by row.
        let mut counts = vec![0usize; self.n_rows + 1];
        for &r in &self.rows {
            counts[r + 1] += 1;
        }
        for i in 0..self.n_rows {
            counts[i + 1] += counts[i];
        }
        let mut order: Vec<usize> = vec![0; self.vals.len()];
        {
            let mut next = counts.clone();
            for (k, &r) in self.rows.iter().enumerate() {
                order[next[r]] = k;
                next[r] += 1;
            }
        }

        let mut row_ptr = Vec::with_capacity(self.n_rows + 1);
        let mut col_idx = Vec::with_capacity(self.vals.len());
        let mut values = Vec::with_capacity(self.vals.len());
        row_ptr.push(0);

        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for r in 0..self.n_rows {
            scratch.clear();
            for &k in &order[counts[r]..counts[r + 1]] {
                scratch.push((self.cols[k], self.vals[k]));
            }
            scratch.sort_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < scratch.len() {
                let c = scratch[i].0;
                let mut v = 0.0;
                while i < scratch.len() && scratch[i].0 == c {
                    v += scratch[i].1;
                    i += 1;
                }
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }

        CsrMatrix::from_raw_parts(self.n_rows, self.n_cols, row_ptr, col_idx, values)
            .expect("CooMatrix::to_csr produced invalid CSR (internal bug)")
    }

    /// Drops all stored triplets, keeping the shape and capacity.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.cols.clear();
        self.vals.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_matrix_converts_to_empty_csr() {
        let coo = CooMatrix::new(3, 3);
        let csr = coo.to_csr();
        assert_eq!(csr.n_rows(), 3);
        assert_eq!(csr.nnz(), 0);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, 0, 2.0).unwrap();
        coo.push(1, 1, 5.0).unwrap();
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 2);
        assert_eq!(csr.get(0, 0), 3.0);
        assert_eq!(csr.get(1, 1), 5.0);
        assert_eq!(csr.get(0, 1), 0.0);
    }

    #[test]
    fn columns_are_sorted_within_rows() {
        let mut coo = CooMatrix::new(1, 4);
        coo.push(0, 3, 3.0).unwrap();
        coo.push(0, 1, 1.0).unwrap();
        coo.push(0, 2, 2.0).unwrap();
        let csr = coo.to_csr();
        let (cols, vals) = csr.row(0);
        assert_eq!(cols, &[1, 2, 3]);
        assert_eq!(vals, &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn out_of_bounds_push_is_rejected() {
        let mut coo = CooMatrix::new(2, 2);
        assert!(matches!(
            coo.push(2, 0, 1.0),
            Err(SparseError::IndexOutOfBounds { .. })
        ));
        assert!(matches!(
            coo.push(0, 2, 1.0),
            Err(SparseError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn push_block_scatters_element_matrix() {
        // 2x2 element block scattered to dofs {0, 2} of a 3x3 matrix.
        let mut coo = CooMatrix::new(3, 3);
        coo.push_block(&[0, 2], &[1.0, -1.0, -1.0, 1.0]).unwrap();
        let csr = coo.to_csr();
        assert_eq!(csr.get(0, 0), 1.0);
        assert_eq!(csr.get(0, 2), -1.0);
        assert_eq!(csr.get(2, 0), -1.0);
        assert_eq!(csr.get(2, 2), 1.0);
        assert_eq!(csr.get(1, 1), 0.0);
    }

    #[test]
    fn push_block_validates_block_shape() {
        let mut coo = CooMatrix::new(3, 3);
        assert!(matches!(
            coo.push_block(&[0, 1], &[1.0, 2.0, 3.0]),
            Err(SparseError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn overlapping_blocks_assemble_like_fem() {
        // Two 1-D "truss elements" sharing the middle node: the classic
        // tridiagonal [1 -1; -1 2 -1; -1 1] pattern of the paper's Eq. 29.
        let mut coo = CooMatrix::new(3, 3);
        let ke = [1.0, -1.0, -1.0, 1.0];
        coo.push_block(&[0, 1], &ke).unwrap();
        coo.push_block(&[1, 2], &ke).unwrap();
        let csr = coo.to_csr();
        assert_eq!(csr.get(1, 1), 2.0);
        assert_eq!(csr.get(0, 1), -1.0);
        assert_eq!(csr.get(1, 2), -1.0);
        assert_eq!(csr.get(0, 2), 0.0);
    }

    #[test]
    fn clear_keeps_shape() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.clear();
        assert_eq!(coo.n_rows(), 2);
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 0);
    }
}
