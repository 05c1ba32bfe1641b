//! The fill-reducing ordering of [`SparseLdlt::factor`](super::SparseLdlt::factor).
//!
//! Rows with identical closed adjacency (the 2 or 3 dofs of a mesh node)
//! are merged into *supervariables* first. A supervariable graph of at most
//! [`LEAF`] vertices is ordered by minimum degree ([`min_degree`]); a larger
//! one by nested dissection ([`dissect`]): its isolated vertices (Dirichlet
//! identities) first, then every connected component on its own, each
//! bisected by a multilevel vertex separator ([`bisect`]) whose two sides are
//! ordered the same way before the separator, down to subgraphs of at most
//! [`LEAF`] vertices, which minimum degree orders. Nothing draws on a clock
//! or a random source and every tie goes to the lowest index, so the
//! permutation is reproducible across runs and platforms.

use super::NONE;
use crate::bcsr::BcsrMatrix;
use crate::graph::{self, balance_cap, components, induced, patience, GainQueue, Graph, FM_PASSES};
use crate::rows::SparseRows;
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Largest supervariable graph minimum degree orders whole, and the leaf
/// size of nested dissection.
pub(super) const LEAF: usize = 64;

/// What [`order`] hands the factor's analysis: the row ordering, the
/// supervariable graph it was derived from and that graph's own order.
pub(super) struct Ordered {
    /// `perm[new] = old`; the rows of one supervariable are consecutive
    /// and ascending.
    pub(super) perm: Vec<u32>,
    /// Rows in the root separator (`0` when minimum degree ordered the
    /// whole matrix; the largest over the components otherwise).
    pub(super) separator: usize,
    /// The supervariable graph; a vertex weighs its rows.
    pub(super) graph: Graph,
    /// The supervariables in elimination order: `perm` lists their rows.
    pub(super) order: Vec<u32>,
}

/// The fill-reducing ordering of `a`'s rows, with the supervariable graph
/// and order it came from.
pub(super) fn order<A: SparseRows + ?Sized>(a: &A) -> Ordered {
    let (sv, graph) = supervariables_of(a);
    let ns = graph.n();
    let (order, separator) = if ns <= LEAF {
        (min_degree(&graph), 0)
    } else {
        let g = &graph;
        let mut order: Vec<u32> = (0..ns as u32).filter(|&v| g.degree(v) == 0).collect();
        let rest: Vec<u32> = (0..ns as u32).filter(|&v| g.degree(v) > 0).collect();
        let ids: Vec<u32> = (0..ns as u32).collect();
        let separator = dissect(g, &rest, &ids, &mut order);
        (order, separator as usize)
    };
    Ordered {
        perm: rows_in(&sv, &order),
        separator,
        graph,
        order,
    }
}

/// The rows in the order of their supervariables (`sv[row]`) in `order`,
/// the rows of one supervariable ascending.
fn rows_in(sv: &[u32], order: &[u32]) -> Vec<u32> {
    // `next[s]`: where supervariable `s`'s next row goes.
    let mut next = vec![0u32; order.len()];
    for &s in sv {
        next[s as usize] += 1;
    }
    let mut at = 0;
    for &s in order {
        let rows = next[s as usize];
        next[s as usize] = at;
        at += rows;
    }
    let mut perm = vec![0u32; sv.len()];
    for (row, &s) in sv.iter().enumerate() {
        perm[next[s as usize] as usize] = row as u32;
        next[s as usize] += 1;
    }
    perm
}

/// A matrix's stored pattern as the ordering reads it: each scalar row as
/// ascending runs `(c, bits)`, each the columns `b·c + j` for the set bits
/// `j` of `bits`.
trait Pattern {
    fn n_rows(&self) -> usize;

    /// Columns per run.
    fn b(&self) -> usize;

    /// The runs of row `i`.
    fn runs(&self, i: usize) -> impl Iterator<Item = (usize, u16)> + '_;

    /// Whether row `i` is known to have the pattern of row `i − 1` and to
    /// hold it: the rows of one node of full blocks.
    fn repeats(&self, _i: usize) -> bool {
        false
    }
}

/// Node blocks, read straight from the block arrays: one run per block of
/// the row — those left of the diagonal through the transposed index, down
/// the stored block's column — fill left out.
struct Blocks<'a>(&'a BcsrMatrix);

impl Pattern for Blocks<'_> {
    fn n_rows(&self) -> usize {
        self.0.n_rows()
    }

    fn b(&self) -> usize {
        self.0.block_size()
    }

    fn runs(&self, i: usize) -> impl Iterator<Item = (usize, u16)> + '_ {
        let a = self.0;
        let (b, br, r) = (a.block_size(), i / a.block_size(), i % a.block_size());
        let (brow_ptr, bcols, _) = a.raw_parts();
        let (lo, hi) = (brow_ptr[br], brow_ptr[br + 1]);
        let lower = (a.lower(br)).map(move |(c, k)| (c, a.transposed_mask_row(k, r)));
        let (mut mask_of, shift, row) = (a.masks_from(lo), r * b, (1u16 << b) - 1);
        let own = (lo..hi).map(move |k| (bcols[k] as usize, mask_of(k) >> shift & row));
        lower.chain(own).filter(|&(_, bits)| bits != 0)
    }

    fn repeats(&self, i: usize) -> bool {
        let a = self.0;
        let (b, br) = (a.block_size(), i / a.block_size());
        let (brow_ptr, bcols, _) = a.raw_parts();
        let (lo, hi) = (brow_ptr[br], brow_ptr[br + 1]);
        let fill = a.fill();
        let next_fill = fill.partition_point(|f| (f.0 as usize) < lo);
        let full = (1u16 << (b * b)) - 1;
        !i.is_multiple_of(b)
            && fill.get(next_fill).is_none_or(|f| f.0 as usize >= hi)
            && bcols[lo..hi].first() == Some(&(br as u32))
            && (fill.is_empty() || a.lower(br).all(|(_, k)| a.mask_at(k) == full))
    }
}

/// Any other storage, through its scalar rows: one run per entry.
struct Rows<'a, A: ?Sized>(&'a A);

impl<A: SparseRows + ?Sized> Pattern for Rows<'_, A> {
    fn n_rows(&self) -> usize {
        self.0.n_rows()
    }

    fn b(&self) -> usize {
        1
    }

    fn runs(&self, i: usize) -> impl Iterator<Item = (usize, u16)> + '_ {
        self.0.row_entries(i).map(|(j, _)| (j, 1))
    }
}

/// [`supervariables`] of `a`'s pattern, natively on node blocks.
fn supervariables_of<A: SparseRows + ?Sized>(a: &A) -> (Vec<u32>, Graph) {
    match a.node_blocks() {
        Some(blocks) => supervariables(&Blocks(blocks)),
        None => supervariables(&Rows(a)),
    }
}

/// The supervariable of every row and the supervariable graph of the
/// pattern (unit edge weights). A row joins the first earlier neighbour
/// with the same stored pattern (diagonal included — the closed adjacency);
/// a supervariable's neighbours are listed in the order its first row
/// meets them. The pattern is read where it lies, nothing of it copied;
/// rows are compared run by run, so the supervariables are those of the
/// scalar rows whatever the storage.
fn supervariables(p: &impl Pattern) -> (Vec<u32>, Graph) {
    let (n, b) = (p.n_rows(), p.b());
    let repeats: Vec<bool> = (0..n).map(|i| p.repeats(i)).collect();
    // Rows of one pattern share its key: only such a pair is compared run
    // by run.
    let mut key = vec![0u64; n];
    for i in 0..n {
        key[i] = match repeats[i] {
            true => key[i - 1],
            false => (p.runs(i)).fold(0, |h, (c, bits)| {
                h.wrapping_add((c as u64) << 16 | u64::from(bits))
            }),
        };
    }
    let mut sv = vec![0u32; n];
    let mut rep: Vec<usize> = Vec::new();
    let mut weight: Vec<u32> = Vec::new();
    for i in 0..n {
        // The first earlier row of the pattern is `i − 1` itself, or the
        // first one `i − 1` found.
        if repeats[i] {
            sv[i] = sv[i - 1];
            weight[sv[i] as usize] += 1;
            continue;
        }
        let mut twin = None;
        'runs: for (c, bits) in p.runs(i) {
            for j in (0..b).filter(|&j| bits >> j & 1 != 0).map(|j| b * c + j) {
                if j >= i {
                    break 'runs;
                }
                if key[j] == key[i] && p.runs(j).eq(p.runs(i)) {
                    twin = Some(j);
                    break 'runs;
                }
            }
        }
        match twin {
            Some(twin) => {
                sv[i] = sv[twin];
                weight[sv[i] as usize] += 1;
            }
            None => {
                sv[i] = rep.len() as u32;
                rep.push(i);
                weight.push(1);
            }
        }
    }
    let ns = rep.len();
    // One run per neighbouring node: the adjacency of a node of full blocks.
    let runs = rep.iter().map(|&r| p.runs(r).count()).sum();
    let mut g = Graph::with_capacity(ns, runs);
    let mut mark = vec![NONE; ns];
    for (s, (&r, &w)) in rep.iter().zip(&weight).enumerate() {
        mark[s] = s as u32;
        for (c, bits) in p.runs(r) {
            for j in (0..b).filter(|&j| bits >> j & 1 != 0) {
                let t = sv[b * c + j];
                if mark[t as usize] != s as u32 {
                    mark[t as usize] = s as u32;
                    g.adj.push(t);
                }
            }
        }
        g.close_vertex(w);
    }
    g.ew.resize(g.adj.len(), 1);
    (sv, g)
}

/// Minimum-degree order of `g`'s vertices (weighted by `g.vw`).
fn min_degree(g: &Graph) -> Vec<u32> {
    let ns = g.n();
    let weight = &g.vw;
    // The quotient graph. A variable `v` keeps its uneliminated neighbours
    // not yet covered by an element in `adj[v]` and the elements it belongs
    // to in `elems[v]`; an element `e` (an eliminated pivot) keeps its
    // uneliminated variables in `members[e]`, of total weight `size[e]`.
    // `mark` holds stamps: `ns + k` during the `k`-th elimination.
    let mut mark = vec![usize::MAX; ns];
    let mut adj: Vec<Vec<u32>> = (0..ns as u32).map(|v| g.neighbours(v).to_vec()).collect();
    let mut elems: Vec<Vec<u32>> = vec![Vec::new(); ns];
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); ns];
    let mut size = vec![0u32; ns];
    let mut absorbed = vec![false; ns];
    // `outside[e] = |Lₑ \ Lₚ|` for the current pivot `p`, valid where
    // `outside_stamp[e]` is the current stamp.
    let mut outside = vec![0u32; ns];
    let mut outside_stamp = vec![usize::MAX; ns];
    let weigh = |list: &[u32]| -> u32 { list.iter().map(|&u| weight[u as usize]).sum() };
    let mut degree: Vec<u32> = adj.iter().map(|list| weigh(list)).collect();
    // Lowest (degree, index) first. An entry goes stale when its variable's
    // degree changes or the variable is eliminated (`degree = NONE`).
    let mut queue: BinaryHeap<Reverse<(u32, u32)>> = (0..ns as u32)
        .map(|s| Reverse((degree[s as usize], s)))
        .collect();
    let mut order: Vec<u32> = Vec::with_capacity(ns);
    let mut remaining: u32 = weight.iter().sum();

    while let Some(Reverse((d, p))) = queue.pop() {
        if degree[p as usize] != d {
            continue;
        }
        degree[p as usize] = NONE;
        let stamp = ns + order.len();
        order.push(p);
        remaining -= weight[p as usize];
        // Lₚ: the pivot's variable neighbours and the variables of its
        // elements, which are absorbed into the new element `p`.
        mark[p as usize] = stamp;
        let mut lp = std::mem::take(&mut adj[p as usize]);
        for &v in &lp {
            mark[v as usize] = stamp;
        }
        for e in std::mem::take(&mut elems[p as usize]) {
            absorbed[e as usize] = true;
            for v in std::mem::take(&mut members[e as usize]) {
                if mark[v as usize] != stamp {
                    mark[v as usize] = stamp;
                    lp.push(v);
                }
            }
        }
        let lp_weight = weigh(&lp);
        for &v in &lp {
            // Edges inside Lₚ ∪ {p} are covered by the new element.
            adj[v as usize].retain(|&u| mark[u as usize] != stamp);
            elems[v as usize].retain(|&e| {
                let e = e as usize;
                if !absorbed[e] {
                    if outside_stamp[e] != stamp {
                        outside_stamp[e] = stamp;
                        outside[e] = size[e];
                    }
                    outside[e] -= weight[v as usize];
                }
                !absorbed[e]
            });
        }
        for &v in &lp {
            let vi = v as usize;
            // An element wholly inside Lₚ adds nothing: absorb it too.
            let mut beyond = 0u64;
            elems[vi].retain(|&e| {
                absorbed[e as usize] |= outside[e as usize] == 0;
                beyond += u64::from(outside[e as usize]);
                !absorbed[e as usize]
            });
            // Approximate external degree: exact for up to two elements, an
            // upper bound beyond (overlaps outside Lₚ are counted twice, so
            // the sums are taken in u64).
            let rest = u64::from(lp_weight - weight[vi]);
            let d = (rest + u64::from(weigh(&adj[vi])) + beyond)
                .min(u64::from(degree[vi]) + rest)
                .min(u64::from(remaining - weight[vi])) as u32;
            if d != degree[vi] {
                degree[vi] = d;
                queue.push(Reverse((d, v)));
            }
            elems[vi].push(p);
        }
        size[p as usize] = lp_weight;
        members[p as usize] = lp;
    }
    order
}

/// Appends the nested-dissection order of the subgraph of `g` over `verts`
/// (ascending) to `out`, as the ids `ids[v]`, and returns the weight of its
/// root separator (the largest over its components; `0` for a leaf).
fn dissect(g: &Graph, verts: &[u32], ids: &[u32], out: &mut Vec<u32>) -> u64 {
    if verts.len() <= LEAF {
        let (sub, sub_ids) = subgraph(g, verts, ids);
        out.extend(min_degree(&sub).into_iter().map(|v| sub_ids[v as usize]));
        return 0;
    }
    let components = components(g, verts);
    if components.len() > 1 {
        return (components.iter())
            .map(|c| dissect(g, c, ids, out))
            .max()
            .unwrap_or(0);
    }
    let (sub, sub_ids) = subgraph(g, verts, ids);
    let side = bisect(&sub);
    if !side.contains(&SEPARATOR) {
        // Only a vertex heavier than the balance allows leaves one side
        // empty, and no separator: no dissection is left to find.
        out.extend(min_degree(&sub).into_iter().map(|v| sub_ids[v as usize]));
        return 0;
    }
    for part in [0, 1] {
        let half: Vec<u32> = (0..sub.n() as u32)
            .filter(|&v| side[v as usize] == part)
            .collect();
        dissect(&sub, &half, &sub_ids, out);
    }
    let separator = (0..sub.n() as u32).filter(|&v| side[v as usize] == SEPARATOR);
    let mut weight = 0;
    for v in separator {
        weight += u64::from(sub.vw[v as usize]);
        out.push(sub_ids[v as usize]);
    }
    weight
}

/// The subgraph of `g` over `verts` (ascending) and its vertices' ids:
/// `g` itself when `verts` covers all of it (the top level), where
/// [`induced`] would copy it whole.
fn subgraph<'g>(g: &'g Graph, verts: &[u32], ids: &'g [u32]) -> (Cow<'g, Graph>, Cow<'g, [u32]>) {
    if verts.len() == g.n() {
        return (Cow::Borrowed(g), Cow::Borrowed(ids));
    }
    let (sub, sub_ids) = induced(g, verts, ids);
    (Cow::Owned(sub), Cow::Owned(sub_ids))
}

/// [`bisect`]'s label of a separator vertex; the two sides are `0` and `1`.
const SEPARATOR: u8 = 2;

/// A vertex separator of the connected graph `g`: the label of every vertex
/// (`0`, `1` or [`SEPARATOR`]). The multilevel edge bisection of
/// [`graph::bisect`] splits `g` in halves; the separator is a minimum vertex
/// cover of its cut edges, FM-refined as a vertex separator.
fn bisect(g: &Graph) -> Vec<u8> {
    let mut side = graph::bisect(g, [1, 1]);
    cover_cut(g, &mut side);
    refine_separator(g, &mut side);
    side
}

/// Turns the edge bisection `side` into a vertex separator: a minimum
/// vertex cover of the cut edges (König's theorem over a maximum matching
/// of the bipartite cut graph) is relabelled [`SEPARATOR`].
fn cover_cut(g: &Graph, side: &mut [u8]) {
    let n = g.n();
    let on_cut = |v: u32| {
        let s = side[v as usize];
        g.neighbours(v).iter().any(|&u| side[u as usize] != s)
    };
    let (left, right): (Vec<u32>, Vec<u32>) = (0..n as u32)
        .filter(|&v| on_cut(v))
        .partition(|&v| side[v as usize] == 0);
    // A maximum matching: each left vertex takes its first free right
    // neighbour, then augmenting paths start from each one left unmatched.
    let mut mate = vec![NONE; n];
    for &v in &left {
        let free = |&&u: &&u32| side[u as usize] == 1 && mate[u as usize] == NONE;
        if let Some(&u) = g.neighbours(v).iter().find(free) {
            mate[v as usize] = u;
            mate[u as usize] = v;
        }
    }
    let mut seen = vec![NONE; n];
    let mut path: Vec<(u32, usize)> = Vec::new();
    for (k, &root) in left.iter().enumerate() {
        if mate[root as usize] != NONE {
            continue;
        }
        // Depth-first search over alternating paths: `path` holds each left
        // vertex on the path and how far through its neighbours it is.
        path.clear();
        path.push((root, 0));
        'search: while let Some(&(v, start)) = path.last() {
            let neighbours = g.neighbours(v);
            for (i, &u) in neighbours.iter().enumerate().skip(start) {
                if side[u as usize] != 1 || seen[u as usize] == k as u32 {
                    continue;
                }
                seen[u as usize] = k as u32;
                let m = mate[u as usize];
                if m == NONE {
                    // Augment along the path, ending at `u`.
                    let mut free = u;
                    for &(x, _) in path.iter().rev() {
                        let prev = mate[x as usize];
                        mate[x as usize] = free;
                        mate[free as usize] = x;
                        free = prev;
                    }
                    break 'search;
                }
                path.last_mut().expect("on the path").1 = i + 1;
                path.push((m, 0));
                continue 'search;
            }
            path.pop();
        }
    }
    // König: from the unmatched left vertices, the vertices alternating
    // paths reach (`reached`); the cover is the unreached left vertices and
    // the reached right ones.
    let mut reached = vec![false; n];
    let mut stack: Vec<u32> = left
        .iter()
        .copied()
        .filter(|&v| mate[v as usize] == NONE)
        .collect();
    for &v in &stack {
        reached[v as usize] = true;
    }
    while let Some(v) = stack.pop() {
        for &u in g.neighbours(v) {
            if side[u as usize] == 1 && !reached[u as usize] {
                reached[u as usize] = true;
                let m = mate[u as usize];
                if m != NONE && !reached[m as usize] {
                    reached[m as usize] = true;
                    stack.push(m);
                }
            }
        }
    }
    for v in left.into_iter().filter(|&v| !reached[v as usize]) {
        side[v as usize] = SEPARATOR;
    }
    for v in right.into_iter().filter(|&v| reached[v as usize]) {
        side[v as usize] = SEPARATOR;
    }
}

/// Fiduccia–Mattheyses refinement of the vertex separator `side`. A move
/// takes a separator vertex into side `to` and pulls its neighbours on the
/// other side into the separator; its gain is the separator weight it
/// saves, `vw(v)` less the weight pulled in. Each pass moves the
/// highest-gain admissible vertex (the lower-weight side among equal gains,
/// then the lowest index), negative gains included, locks it, and rolls
/// back to the lightest separator seen with both sides under the balance
/// cap once a patience of moves brings nothing better.
fn refine_separator(g: &Graph, side: &mut [u8]) {
    let n = g.n();
    let cap = balance_cap(g, [1, 1]);
    let mut s = Separator {
        g,
        side,
        weight: [0; 3],
        near: vec![[0; 2]; n],
    };
    for v in 0..n {
        let sv = s.side[v];
        s.weight[sv as usize] += u64::from(g.vw[v]);
        if sv != SEPARATOR {
            for &u in g.neighbours(v as u32) {
                s.near[u as usize][sv as usize] += g.vw[v];
            }
        }
    }
    let mut locked = vec![false; n];
    // The move after which a vertex was last queued anew.
    let mut queued = vec![0; n];
    // Each move: the vertex, its side, and where its pulled vertices start
    // in `pulled`.
    let mut moves: Vec<(u32, u8, usize)> = Vec::new();
    let mut pulled: Vec<u32> = Vec::new();
    let mut heaps = [GainQueue::default(), GainQueue::default()];
    let balanced = |w: &[u64; 3]| w[0] <= cap[0] && w[1] <= cap[1];
    let diff = |w: &[u64; 3]| w[0].abs_diff(w[1]);
    for _ in 0..FM_PASSES {
        for (to, heap) in heaps.iter_mut().enumerate() {
            heap.clear();
            for v in (0..n as u32).filter(|&v| s.side[v as usize] == SEPARATOR) {
                heap.push(s.gain(v, to), v);
            }
        }
        locked.fill(false);
        queued.fill(0);
        moves.clear();
        pulled.clear();
        let start = s.weight[2];
        let mut best = (
            if balanced(&s.weight) { start } else { u64::MAX },
            0,
            diff(&s.weight),
        );
        loop {
            // Drop stale tops; a top stays when it is current.
            let mut top = [None, None];
            for (to, heap) in heaps.iter_mut().enumerate() {
                while let Some((gv, v)) = heap.peek() {
                    let vi = v as usize;
                    if s.side[vi] == SEPARATOR && !locked[vi] && gv == s.gain(v, to) {
                        top[to] = Some((gv, v));
                        break;
                    }
                    heap.pop();
                }
            }
            let admissible = |to: usize| {
                top[to].filter(|&(_, v)| s.weight[to] + u64::from(g.vw[v as usize]) <= cap[to])
            };
            let to = match (admissible(0), admissible(1)) {
                (None, None) => break,
                (Some(_), None) => 0,
                (None, Some(_)) => 1,
                (Some((g0, v0)), Some((g1, v1))) => {
                    let key = |gv: i64, to: usize, v: u32| (gv, Reverse(s.weight[to]), Reverse(v));
                    usize::from(key(g1, 1, v1) > key(g0, 0, v0))
                }
            };
            let (_, v) = top[to].expect("admissible");
            heaps[to].pop();
            locked[v as usize] = true;
            moves.push((v, to as u8, pulled.len()));
            let first = pulled.len();
            s.relabel(v, to as u8);
            for &u in g.neighbours(v) {
                if s.side[u as usize] == 1 - to as u8 {
                    s.relabel(u, SEPARATOR);
                    pulled.push(u);
                }
            }
            // The separator vertices whose gains moved, once each: `v`'s
            // neighbours and the pulled vertices with theirs.
            let touched = (g.neighbours(v).iter())
                .chain(pulled[first..].iter().flat_map(|&u| g.neighbours(u).iter()));
            for &w in touched {
                let wi = w as usize;
                if s.side[wi] == SEPARATOR && !locked[wi] && queued[wi] != moves.len() {
                    queued[wi] = moves.len();
                    for (t, heap) in heaps.iter_mut().enumerate() {
                        heap.push(s.gain(w, t), w);
                    }
                }
            }
            if balanced(&s.weight) && (s.weight[2], diff(&s.weight)) < (best.0, best.2) {
                best = (s.weight[2], moves.len(), diff(&s.weight));
            } else if moves.len() - best.1 > patience(n) {
                break;
            }
        }
        for &(v, to, first) in moves[best.1..].iter().rev() {
            for &u in &pulled[first..] {
                s.relabel(u, 1 - to);
            }
            pulled.truncate(first);
            s.relabel(v, SEPARATOR);
        }
        if best.1 == 0 || s.weight[2] >= start {
            break;
        }
    }
}

/// A vertex separator being refined: the labels, the weight of each label,
/// and each vertex's neighbour weight on sides 0 and 1.
struct Separator<'a> {
    g: &'a Graph,
    side: &'a mut [u8],
    weight: [u64; 3],
    near: Vec<[u32; 2]>,
}

impl Separator<'_> {
    /// The separator weight moving separator vertex `v` into side `to`
    /// saves: its own weight less its neighbours' on the other side.
    fn gain(&self, v: u32, to: usize) -> i64 {
        i64::from(self.g.vw[v as usize]) - i64::from(self.near[v as usize][1 - to])
    }

    /// Gives `v` the label `to`, keeping the weights current.
    fn relabel(&mut self, v: u32, to: u8) {
        let (vi, w) = (v as usize, self.g.vw[v as usize]);
        let from = std::mem::replace(&mut self.side[vi], to);
        self.weight[from as usize] -= u64::from(w);
        self.weight[to as usize] += u64::from(w);
        for &u in self.g.neighbours(v) {
            let near = &mut self.near[u as usize];
            if from != SEPARATOR {
                near[from as usize] -= w;
            }
            if to != SEPARATOR {
                near[to as usize] += w;
            }
        }
    }
}

/// Minimum degree over the whole supervariable graph of `a`, whatever its
/// size: the reference nested dissection is measured against.
#[cfg(test)]
pub(super) fn min_degree_ordering<A: SparseRows + ?Sized>(a: &A) -> Vec<u32> {
    let (sv, g) = supervariables_of(a);
    rows_in(&sv, &min_degree(&g))
}

/// Vertices of `a`'s supervariable graph.
#[cfg(test)]
pub(super) fn supervariable_count<A: SparseRows + ?Sized>(a: &A) -> usize {
    supervariables_of(a).1.n()
}
