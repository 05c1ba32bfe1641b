//! The scalar row-subtree analysis of `P A Pᵀ`, one walk per stored entry:
//! the test reference `SparseLdlt`'s supervariable analysis must reproduce
//! array for array. Shared by the sparse crate's unit and property tests and
//! by the finite-element factorization tests, so it names nothing but std.

// Each includer reads the fields it checks.
#![allow(dead_code)]

/// Tree root / "not yet visited" marker.
const NONE: u32 = u32::MAX;

/// The column counts and the panel layout of `L` under one ordering.
#[derive(Debug)]
pub struct ScalarAnalysis {
    /// Column `j` of `L` holds `col_ptr[j + 1] - col_ptr[j]` entries below
    /// its diagonal.
    pub col_ptr: Vec<usize>,
    /// Supernode `s` holds the columns `first[s]..first[s + 1]`.
    pub first: Vec<u32>,
    /// The rows below supernode `s`'s block, `rows[row_ptr[s]..row_ptr[s + 1]]`.
    pub row_ptr: Vec<usize>,
    pub rows: Vec<u32>,
    /// Supernode `s`'s values, `val_ptr[s]..val_ptr[s + 1]`: its packed strict
    /// lower block, then one row of its width per row below.
    pub val_ptr: Vec<usize>,
    /// The supernode of every column.
    pub owner: Vec<u32>,
}

/// The analysis of the symmetric pattern `pattern` (row `i` lists the
/// original columns of its stored entries) under `perm[new] = old`.
///
/// The pattern of row `k` of `L` is the union of the tree paths from each
/// `j < k` with `a_kj ≠ 0` up to `k`. Column `j + 1` continues `j`'s
/// fundamental supernode when it is `j`'s parent, has no other child, and
/// their column counts nest (`c_j = c_{j+1} + 1`); row `k` lies below
/// supernode `s` exactly when its row subtree passes through `s`'s last
/// column.
pub fn scalar_analysis(pattern: &[Vec<usize>], perm: &[u32]) -> ScalarAnalysis {
    let n = perm.len();
    let mut iperm = vec![0u32; n];
    for (new, &old) in perm.iter().enumerate() {
        iperm[old as usize] = new as u32;
    }
    let lower = |k: usize| {
        (pattern[perm[k] as usize].iter())
            .map(|&j| iperm[j] as usize)
            .filter(move |&i| i < k)
    };

    let mut parent = vec![NONE; n];
    let mut visited = vec![NONE; n];
    let mut count = vec![0usize; n];
    for k in 0..n {
        visited[k] = k as u32;
        for mut i in lower(k) {
            while i < k && visited[i] != k as u32 {
                if parent[i] == NONE {
                    parent[i] = k as u32;
                }
                count[i] += 1;
                visited[i] = k as u32;
                i = parent[i] as usize;
            }
        }
    }
    let mut col_ptr = vec![0usize];
    for j in 0..n {
        col_ptr.push(col_ptr[j] + count[j]);
    }

    let mut children = vec![0u32; n];
    for &p in parent.iter().filter(|&&p| p != NONE) {
        children[p as usize] += 1;
    }
    let mut first = vec![0u32];
    let mut owner = vec![0u32; n];
    for j in 1..n {
        let joins = parent[j - 1] == j as u32 && children[j] == 1 && count[j - 1] == count[j] + 1;
        if !joins {
            first.push(j as u32);
        }
        owner[j] = first.len() as u32 - 1;
    }
    if n > 0 {
        first.push(n as u32);
    }
    let ns = first.len() - 1;
    let last = |s: usize| first[s + 1] as usize - 1;
    let mut row_ptr = vec![0usize; ns + 1];
    let mut val_ptr = vec![0usize; ns + 1];
    for s in 0..ns {
        let (w, below) = ((first[s + 1] - first[s]) as usize, count[last(s)]);
        row_ptr[s + 1] = row_ptr[s] + below;
        val_ptr[s + 1] = val_ptr[s] + w * (w - 1) / 2 + w * below;
    }
    let mut next = row_ptr[..ns].to_vec();
    let mut rows = vec![0u32; row_ptr[ns]];
    let mut seen = vec![NONE; ns];
    for k in 0..n {
        for i in lower(k) {
            let mut s = owner[i] as usize;
            while s != owner[k] as usize && seen[s] != k as u32 {
                seen[s] = k as u32;
                rows[next[s]] = k as u32;
                next[s] += 1;
                s = owner[parent[last(s)] as usize] as usize;
            }
        }
    }
    assert_eq!(next, row_ptr[1..], "row lists fill their counts");
    ScalarAnalysis {
        col_ptr,
        first,
        row_ptr,
        rows,
        val_ptr,
        owner,
    }
}
