//! Factor bits beyond the goldens: FNV-1a digests of the permutation, the
//! values of `L`, the pivots `D` and the skipped pivots of
//! [`SparseLdlt::factor`] over a spread of inputs — 2-D and 3-D node blocks
//! and their CSR copies, scalar CSR, blocks with Dirichlet identities (fill),
//! a floating block with null pivots, and sizes on both sides of the
//! minimum-degree leaf (64 supervariables). Any change to the ordering, the
//! analysis, the scatter or the numeric phase that moves one bit fails here.
//!
//! The node-block and CSR storages of one matrix must give the same digests.

use parfem_sparse::ldlt::{SparseLdlt, DEFAULT_PIVOT_TOL};
use parfem_sparse::{BcsrMatrix, CooMatrix, CsrMatrix, NodeMatrix};

/// FNV-1a over a stream of 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The digests of one factorization: permutation, `L` values, pivots and
/// skipped pivots, with the count of the last.
#[derive(Debug, PartialEq, Eq)]
struct Bits {
    perm: u64,
    vals: u64,
    d: u64,
    skipped: u64,
    n_skipped: usize,
}

impl Bits {
    /// The digests of permutation, `L` and `D`, and the digest and count of
    /// the skipped pivots.
    fn pinned([perm, vals, d]: [u64; 3], (skipped, n_skipped): (u64, usize)) -> Self {
        Bits {
            perm,
            vals,
            d,
            skipped,
            n_skipped,
        }
    }
}

/// No skipped pivot: the digest of the empty list.
const NONE_SKIPPED: (u64, usize) = (0xcbf2_9ce4_8422_2325, 0);

fn bits(f: &SparseLdlt) -> Bits {
    let (vals, d) = f.factor_values();
    Bits {
        perm: fnv(f.permutation().iter().map(|&p| u64::from(p))),
        vals: fnv(vals.iter().map(|v| v.to_bits())),
        d: fnv(d.iter().map(|v| v.to_bits())),
        skipped: fnv(f.skipped_modes().iter().map(|&i| i as u64)),
        n_skipped: f.n_skipped(),
    }
}

/// A symmetric weight in `[1, 2)` for the node pair `{p, q}`.
fn weight(p: usize, q: usize) -> f64 {
    let (lo, hi) = (p.min(q) as u64, p.max(q) as u64);
    let h = fnv([lo, hi]);
    1.0 + (h % 1000) as f64 / 1000.0
}

/// A fixed symmetric positive definite coupling between dofs `i` and `j`
/// of two nodes.
fn coupling(i: usize, j: usize) -> f64 {
    if i == j {
        1.0 + 0.25 * i as f64
    } else {
        0.3 / (1 + i + j) as f64
    }
}

/// `b` dofs per node over the node graph `edges` (each pair once, `p < q`):
/// `−w_pq M` off the diagonal, `(Σ_q w_pq + shift) M` on it, `M` the fixed
/// coupling. `shift = 0` is a floating operator (`b` null vectors); dofs in
/// `fixed` become Dirichlet identities with their rows and columns dropped.
fn node_operator(
    nodes: usize,
    b: usize,
    edges: &[(usize, usize)],
    shift: f64,
    fixed: impl Fn(usize) -> bool,
) -> CsrMatrix {
    let n = b * nodes;
    let mut diag = vec![shift; nodes];
    for &(p, q) in edges {
        diag[p] += weight(p, q);
        diag[q] += weight(p, q);
    }
    let mut coo = CooMatrix::new(n, n);
    let couple = |p: usize, q: usize, w: f64, coo: &mut CooMatrix| {
        for (i, j) in (0..b).flat_map(|i| (0..b).map(move |j| (i, j))) {
            let (r, c) = (b * p + i, b * q + j);
            if !fixed(r) && !fixed(c) {
                coo.push(r, c, w * coupling(i, j)).unwrap();
            }
        }
    };
    for (p, &dp) in diag.iter().enumerate() {
        couple(p, p, dp, &mut coo);
    }
    for &(p, q) in edges {
        couple(p, q, -weight(p, q), &mut coo);
        couple(q, p, -weight(p, q), &mut coo);
    }
    for r in (0..n).filter(|&r| fixed(r)) {
        coo.push(r, r, 1.0).unwrap();
    }
    coo.to_csr()
}

/// The node pairs of a 9-point (2-D, `nz = 1`) or 27-point box stencil on
/// an `nx × ny × nz` node grid, `p < q`.
fn box_edges(nx: usize, ny: usize, nz: usize) -> Vec<(usize, usize)> {
    let node = |x: usize, y: usize, z: usize| (z * ny + y) * nx + x;
    let mut edges = Vec::new();
    for (z, y, x) in
        (0..nz).flat_map(|z| (0..ny).flat_map(move |y| (0..nx).map(move |x| (z, y, x))))
    {
        for (dx, dy, dz) in (0..27).map(|k| (k % 3, k / 3 % 3, k / 9)) {
            let (qx, qy, qz) = (x + dx, y + dy, z + dz);
            if qx == 0 || qy == 0 || qz == 0 || qx > nx || qy > ny || qz > nz {
                continue;
            }
            let (p, q) = (node(x, y, z), node(qx - 1, qy - 1, qz - 1));
            if p < q {
                edges.push((p, q));
            }
        }
    }
    edges
}

/// Factors `a` from CSR and, when `b > 1`, from its node blocks and the
/// `NodeMatrix` holding them; every storage must give `want`.
fn assert_bits(what: &str, a: &CsrMatrix, b: usize, want: &Bits) {
    let got = bits(&SparseLdlt::factor(a, DEFAULT_PIVOT_TOL));
    assert_eq!(&got, want, "{what}: CSR");
    if b > 1 {
        let blocks = BcsrMatrix::from_csr(a, b).expect("node-blocked by construction");
        let got = bits(&SparseLdlt::factor(&blocks, DEFAULT_PIVOT_TOL));
        assert_eq!(&got, want, "{what}: node blocks");
        let node = NodeMatrix::from_csr(a.clone(), b);
        let got = bits(&SparseLdlt::factor(&node, DEFAULT_PIVOT_TOL));
        assert_eq!(&got, want, "{what}: NodeMatrix");
    }
}

#[test]
fn scalar_csr_on_both_sides_of_the_leaf() {
    // 7 × 9 = 63 supervariables (minimum degree) and 20 × 18 (dissection).
    let small = node_operator(63, 1, &box_edges(7, 9, 1), 0.5, |_| false);
    assert_bits(
        "scalar 7x9",
        &small,
        1,
        &Bits::pinned(
            [
                0xcfd5_7bc6_4ee3_4b84,
                0x70dd_d6f3_1867_1058,
                0x4b37_5e85_76ff_844d,
            ],
            NONE_SKIPPED,
        ),
    );
    let large = node_operator(360, 1, &box_edges(20, 18, 1), 0.5, |_| false);
    assert_bits(
        "scalar 20x18",
        &large,
        1,
        &Bits::pinned(
            [
                0x0746_2775_ab3d_894f,
                0xc793_774a_dda4_4a65,
                0x6de1_85f7_161c_562c,
            ],
            NONE_SKIPPED,
        ),
    );
}

#[test]
fn two_dof_node_blocks_on_both_sides_of_the_leaf() {
    let small = node_operator(36, 2, &box_edges(6, 6, 1), 0.5, |_| false);
    assert_bits(
        "2-D 6x6",
        &small,
        2,
        &Bits::pinned(
            [
                0x1951_add3_800c_4291,
                0x038c_17c5_6834_2e7e,
                0x5b32_f8db_784c_bd76,
            ],
            NONE_SKIPPED,
        ),
    );
    let large = node_operator(168, 2, &box_edges(14, 12, 1), 0.5, |_| false);
    assert_bits(
        "2-D 14x12",
        &large,
        2,
        &Bits::pinned(
            [
                0x6cc3_9494_5f24_1031,
                0xcc85_0e4a_a22a_a68f,
                0x2f55_b49a_5dd7_24d6,
            ],
            NONE_SKIPPED,
        ),
    );
}

#[test]
fn three_dof_node_blocks_on_both_sides_of_the_leaf() {
    // 4³ = 64 supervariables is the leaf itself; 7 × 6 × 5 is dissected.
    let small = node_operator(64, 3, &box_edges(4, 4, 4), 0.5, |_| false);
    assert_bits(
        "3-D 4x4x4",
        &small,
        3,
        &Bits::pinned(
            [
                0x3c00_d410_0e6a_fa69,
                0x4fd9_57fb_4562_8bac,
                0x87b2_44ef_b6ce_8b1c,
            ],
            NONE_SKIPPED,
        ),
    );
    let large = node_operator(210, 3, &box_edges(7, 6, 5), 0.5, |_| false);
    assert_bits(
        "3-D 7x6x5",
        &large,
        3,
        &Bits::pinned(
            [
                0x187f_470d_416f_1324,
                0x27cb_2622_5ad5_53da,
                0xa9fd_b388_28af_0979,
            ],
            NONE_SKIPPED,
        ),
    );
}

#[test]
fn node_blocks_with_dirichlet_identities() {
    // The x = 0 face clamped, and the second dof of every seventh node
    // fixed on its own: identities among full and fill-holding blocks.
    let (nx, ny, nz) = (6, 5, 5);
    let fixed3 = |r: usize| {
        let node = r / 3;
        node.is_multiple_of(nx) || (node % 7 == 3 && r % 3 == 1)
    };
    let a = node_operator(nx * ny * nz, 3, &box_edges(nx, ny, nz), 0.0, fixed3);
    assert_bits(
        "3-D clamped 6x5x5",
        &a,
        3,
        &Bits::pinned(
            [
                0x72d5_6d02_c5a0_3428,
                0x76e1_f706_c447_879e,
                0x2ca5_ca84_6810_baba,
            ],
            NONE_SKIPPED,
        ),
    );
    let fixed2 = |r: usize| {
        let node = r / 2;
        node.is_multiple_of(12) || (node % 5 == 2 && r.is_multiple_of(2))
    };
    let a = node_operator(12 * 10, 2, &box_edges(12, 10, 1), 0.0, fixed2);
    assert_bits(
        "2-D clamped 12x10",
        &a,
        2,
        &Bits::pinned(
            [
                0x2565_2357_270d_4e63,
                0xd44a_4978_7a83_aba1,
                0xe329_fa73_9a59_a3c3,
            ],
            NONE_SKIPPED,
        ),
    );
}

#[test]
fn floating_block_skips_its_null_pivots() {
    // No support at all: the operator carries a null vector per dof of a
    // node, and the factor skips pivots instead of failing.
    let a = node_operator(6 * 5 * 4, 3, &box_edges(6, 5, 4), 0.0, |_| false);
    assert_bits(
        "3-D floating 6x5x4",
        &a,
        3,
        &Bits::pinned(
            [
                0xfade_dedd_62e7_b1a1,
                0x9011_debf_5fd3_fd1d,
                0xeea9_2eb3_377a_f501,
            ],
            (0x0c46_4a15_21da_7071, 3),
        ),
    );
}

#[test]
fn nodes_with_one_neighbourhood_share_a_supervariable() {
    // Two nodes across, so neighbouring nodes have the same closed
    // neighbourhood and their rows merge into one supervariable: 2 × 2 × 80
    // nodes give 80 (dissected), a 2 × 50 strip with a dof fixed in every
    // ninth node gives fill among the merged rows.
    let a = node_operator(2 * 2 * 80, 3, &box_edges(2, 2, 80), 0.5, |_| false);
    assert_bits(
        "3-D 2x2x80",
        &a,
        3,
        &Bits::pinned(
            [
                0xb722_f246_562e_0a65,
                0x93ad_2a73_3013_91ca,
                0xd9ac_28f1_bded_aa87,
            ],
            NONE_SKIPPED,
        ),
    );
    let fixed = |r: usize| r / 2 % 9 == 4 && r % 2 == 1;
    let a = node_operator(2 * 50, 2, &box_edges(2, 50, 1), 0.5, fixed);
    assert_bits(
        "2-D strip 2x50",
        &a,
        2,
        &Bits::pinned(
            [
                0x0a36_b7cb_b1b6_7c95,
                0x0ce8_77ae_37fe_3390,
                0xc9a5_d0ed_bdb3_9d41,
            ],
            NONE_SKIPPED,
        ),
    );
}
