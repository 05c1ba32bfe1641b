//! Multilevel edge bisection of a weighted graph, the one graph kernel of
//! the workspace: the nested-dissection ordering of
//! [`SparseLdlt`](crate::ldlt::SparseLdlt) splits its supervariable graphs
//! with it, and `parfem-mesh`'s element partitioner recursively bisects the
//! element graph with it.
//!
//! [`bisect`] coarsens a [`Graph`] by heavy-edge matching level by level,
//! bisects the coarsest graph by greedy growth, and projects the bisection
//! back with Fiduccia–Mattheyses refinement on every level. Side 0 targets
//! `k₀/(k₀ + k₁)` of the vertex weight, so a recursive split of `k = k₀ + k₁`
//! parts stays proportional. Nothing draws on a clock or a random source and
//! every tie goes to the lowest index, so a bisection is reproducible across
//! runs and platforms.

use std::collections::BinaryHeap;

/// "No vertex": an unmatched mate, an index outside a subgraph.
const NONE: u32 = u32::MAX;

/// Coarsening stops at this many vertices (or when a level stops
/// shrinking); the initial bisection runs on that graph.
const COARSEST: usize = 48;

/// A side of a bisection may hold `1 + 2·IMBALANCE` times its share of the
/// vertex weight (`1/2 + IMBALANCE` of it for an even split; see
/// [`balance_cap`]).
const IMBALANCE: f64 = 0.05;

/// FM passes per level; a pass that does not improve the cut ends them.
pub(crate) const FM_PASSES: usize = 8;

/// Greedy growths tried on the coarsest graph.
const INITIAL_TRIES: usize = 4;

/// An undirected graph in CSR form with vertex and edge weights, no
/// self-loops.
#[derive(Clone)]
pub struct Graph {
    pub(crate) xadj: Vec<u32>,
    pub(crate) adj: Vec<u32>,
    /// Edge weights, parallel to `adj`.
    pub(crate) ew: Vec<u32>,
    /// Vertex weights (rows per supervariable in the ordering), summed when
    /// coarsened.
    pub(crate) vw: Vec<u32>,
}

impl Graph {
    /// The graph with unit vertex and edge weights whose vertex `v` has the
    /// neighbours `lists[v]` (symmetric, no self-loops).
    ///
    /// # Panics
    /// Panics if the vertex count does not fit the `u32` indices.
    pub fn unit<'a>(lists: impl ExactSizeIterator<Item = &'a [usize]>) -> Self {
        assert!(lists.len() < NONE as usize, "too many vertices for u32");
        let mut g = Graph::with_capacity(lists.len(), 0);
        for list in lists {
            g.adj.extend(list.iter().map(|&u| u as u32));
            g.close_vertex(1);
        }
        g.ew = vec![1; g.adj.len()];
        g
    }

    /// A graph without vertices, with room for `n` of them and `edges`
    /// adjacency entries.
    pub(crate) fn with_capacity(n: usize, edges: usize) -> Self {
        let mut xadj = Vec::with_capacity(n + 1);
        xadj.push(0);
        let (adj, ew) = (Vec::with_capacity(edges), Vec::with_capacity(edges));
        let vw = Vec::with_capacity(n);
        Graph { xadj, adj, ew, vw }
    }

    /// The number of vertices.
    pub fn n(&self) -> usize {
        self.vw.len()
    }

    fn range(&self, v: u32) -> std::ops::Range<usize> {
        self.xadj[v as usize] as usize..self.xadj[v as usize + 1] as usize
    }

    /// The neighbours of `v`.
    pub fn neighbours(&self, v: u32) -> &[u32] {
        &self.adj[self.range(v)]
    }

    /// `(neighbour, edge weight)` of `v`.
    pub(crate) fn edges(&self, v: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let r = self.range(v);
        self.adj[r.clone()]
            .iter()
            .copied()
            .zip(self.ew[r].iter().copied())
    }

    pub(crate) fn degree(&self, v: u32) -> usize {
        self.range(v).len()
    }

    pub(crate) fn total_weight(&self) -> u64 {
        self.vw.iter().map(|&w| u64::from(w)).sum()
    }

    /// Closes the adjacency list of the vertex just pushed.
    pub(crate) fn close_vertex(&mut self, weight: u32) {
        self.vw.push(weight);
        self.xadj.push(self.adj.len() as u32);
    }
}

/// The subgraph of `g` over `verts` (ascending) and its vertices' ids.
pub fn induced(g: &Graph, verts: &[u32], ids: &[u32]) -> (Graph, Vec<u32>) {
    let mut local = vec![NONE; g.n()];
    for (l, &v) in verts.iter().enumerate() {
        local[v as usize] = l as u32;
    }
    let edges = verts.iter().map(|&v| g.degree(v)).sum();
    let mut sub = Graph::with_capacity(verts.len(), edges);
    for &v in verts {
        for (u, w) in g.edges(v) {
            if local[u as usize] != NONE {
                sub.adj.push(local[u as usize]);
                sub.ew.push(w);
            }
        }
        sub.close_vertex(g.vw[v as usize]);
    }
    (sub, verts.iter().map(|&v| ids[v as usize]).collect())
}

/// The connected components of the subgraph of `g` over `verts`
/// (ascending), each ascending, in the order of their lowest vertex.
pub(crate) fn components(g: &Graph, verts: &[u32]) -> Vec<Vec<u32>> {
    // 0: outside `verts`, 1: not yet reached, 2: reached.
    let mut state = vec![0u8; g.n()];
    for &v in verts {
        state[v as usize] = 1;
    }
    let mut out = Vec::new();
    let mut stack = Vec::new();
    for &root in verts {
        if state[root as usize] != 1 {
            continue;
        }
        state[root as usize] = 2;
        stack.push(root);
        let mut component = Vec::new();
        while let Some(v) = stack.pop() {
            component.push(v);
            for &u in g.neighbours(v) {
                if state[u as usize] == 1 {
                    state[u as usize] = 2;
                    stack.push(u);
                }
            }
        }
        if component.len() == verts.len() {
            // Connected: `verts` is the one component, already ascending.
            return vec![verts.to_vec()];
        }
        component.sort_unstable();
        out.push(component);
    }
    out
}

/// An edge bisection of `g`: the side (`0` or `1`) of every vertex, side
/// `s` holding about `parts[s] / (parts[0] + parts[1])` of the vertex weight
/// and at least `parts[s]` of it (as many vertices on a unit-weight graph)
/// once refinement reaches the balance caps. Heavy-edge matching coarsens
/// `g` level by level; the coarsest graph is bisected by greedy growth and
/// FM; the bisection is projected back and FM-refined on every level.
pub fn bisect(g: &Graph, parts: [usize; 2]) -> Vec<u8> {
    // No coarse vertex may outweigh this share of the graph.
    let max_vw = (3 * g.total_weight() / (2 * COARSEST as u64)).max(1);
    let mut coarse: Vec<(Graph, Vec<u32>)> = Vec::new();
    loop {
        let fine = coarse.last().map_or(g, |(c, _)| c);
        let lightest = u64::from(fine.vw.iter().copied().min().unwrap_or(0));
        if fine.n() <= COARSEST || 2 * lightest > max_vw {
            break;
        }
        let (next, map) = coarsen(fine, max_vw);
        if 20 * next.n() > 19 * fine.n() {
            break;
        }
        coarse.push((next, map));
    }
    let coarsest = coarse.last().map_or(g, |(c, _)| c);
    let mut side = initial_bisection(coarsest, parts);
    for level in (0..coarse.len()).rev() {
        let fine = if level == 0 { g } else { &coarse[level - 1].0 };
        let map = &coarse[level].1;
        side = map.iter().map(|&c| side[c as usize]).collect();
        refine(fine, &mut side, parts);
    }
    side
}

/// One level of heavy-edge matching: every vertex, in ascending degree
/// order, pairs with its unmatched neighbour over the heaviest edge (the
/// lowest index among equals) unless the pair would weigh more than
/// `max_vw`. Returns the coarse graph and the coarse vertex of every fine
/// one.
fn coarsen(g: &Graph, max_vw: u64) -> (Graph, Vec<u32>) {
    let n = g.n();
    let mut mate = vec![NONE; n];
    let mut visit: Vec<u32> = (0..n as u32).collect();
    visit.sort_unstable_by_key(|&v| (g.degree(v), v));
    for u in visit {
        if mate[u as usize] != NONE {
            continue;
        }
        let mut best = (0, NONE);
        for (v, w) in g.edges(u) {
            let heavier = w > best.0 || (w == best.0 && v < best.1);
            if mate[v as usize] == NONE
                && heavier
                && u64::from(g.vw[u as usize] + g.vw[v as usize]) <= max_vw
            {
                best = (w, v);
            }
        }
        let v = if best.1 == NONE { u } else { best.1 };
        mate[u as usize] = v;
        mate[v as usize] = u;
    }
    let mut map = vec![NONE; n];
    let mut members = Vec::with_capacity(n);
    for u in 0..n as u32 {
        if map[u as usize] == NONE {
            let c = members.len() as u32;
            map[u as usize] = c;
            map[mate[u as usize] as usize] = c;
            members.push((u, mate[u as usize]));
        }
    }
    let nc = members.len();
    let mut c = Graph::with_capacity(nc, g.adj.len());
    // `at[t]`: where coarse vertex `t` sits in the list being built, valid
    // when at least the list's start.
    let mut at = vec![usize::MAX; nc];
    for (cv, &(u, v)) in members.iter().enumerate() {
        let start = c.adj.len();
        let pair = if u == v { &[u][..] } else { &[u, v][..] };
        for &x in pair {
            for (y, w) in g.edges(x) {
                let t = map[y as usize];
                if t as usize == cv {
                    continue;
                }
                let k = at[t as usize];
                if k != usize::MAX && k >= start && c.adj[k] == t {
                    c.ew[k] += w;
                } else {
                    at[t as usize] = c.adj.len();
                    c.adj.push(t);
                    c.ew.push(w);
                }
            }
        }
        let weight = pair.iter().map(|&x| g.vw[x as usize]).sum();
        c.close_vertex(weight);
    }
    (c, map)
}

/// A vertex whose breadth-first level structure is (locally) deepest:
/// repeatedly the first vertex of the last level of a search from the
/// previous one, starting at vertex 0.
fn pseudo_peripheral(g: &Graph) -> u32 {
    let n = g.n();
    let mut level = vec![NONE; n];
    let mut queue = Vec::with_capacity(n);
    let mut root = 0u32;
    let mut depth = 0;
    for _ in 0..8 {
        level.fill(NONE);
        queue.clear();
        queue.push(root);
        level[root as usize] = 0;
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            for &u in g.neighbours(v) {
                if level[u as usize] == NONE {
                    level[u as usize] = level[v as usize] + 1;
                    queue.push(u);
                }
            }
        }
        let last = level[*queue.last().expect("a vertex") as usize];
        if last <= depth {
            break;
        }
        depth = last;
        root = *(queue.iter())
            .filter(|&&v| level[v as usize] == last)
            .min()
            .expect("the last level");
    }
    root
}

/// The best of [`INITIAL_TRIES`] greedy growths (the lowest cut, the first
/// among equals) — from a pseudo-peripheral vertex, then from vertices
/// spread evenly over the index range — refined by FM.
fn initial_bisection(g: &Graph, parts: [usize; 2]) -> Vec<u8> {
    let n = g.n();
    let seeds = std::iter::once(pseudo_peripheral(g))
        .chain((1..INITIAL_TRIES).map(|k| (k * n / INITIAL_TRIES) as u32));
    let mut best: Option<(i64, Vec<u8>)> = None;
    for seed in seeds {
        let (cut, side) = grow(g, seed, parts);
        if best.as_ref().is_none_or(|(c, _)| cut < *c) {
            best = Some((cut, side));
        }
    }
    let mut side = best.expect("at least one try").1;
    refine(g, &mut side, parts);
    side
}

/// Greedy graph growing from `seed`: side 0 takes the frontier vertex that
/// adds the least cut (the lowest index among equals) until it holds its
/// `parts[0]` share of the weight. Returns the cut and the sides.
fn grow(g: &Graph, seed: u32, parts: [usize; 2]) -> (i64, Vec<u8>) {
    let n = g.n();
    let mut side = vec![1u8; n];
    let [k0, k1] = parts.map(|k| k as u64);
    let half = g.total_weight() * k0 / (k0 + k1);
    // Gain of moving `v` to side 0: its edge weight into side 0 less the
    // rest.
    let mut gain: Vec<i64> = (0..n as u32)
        .map(|v| -g.edges(v).map(|(_, w)| i64::from(w)).sum::<i64>())
        .collect();
    let mut heap = GainQueue::default();
    heap.push(gain[seed as usize], seed);
    let (mut weight, mut cut) = (0, 0);
    let mut next_unreached = 0;
    while weight < half {
        let v = match heap.pop() {
            Some((gv, v)) => {
                if side[v as usize] == 0 || gain[v as usize] != gv {
                    continue;
                }
                v
            }
            // A disconnected remainder: restart from its lowest vertex.
            None => {
                while side[next_unreached] == 0 {
                    next_unreached += 1;
                }
                next_unreached as u32
            }
        };
        side[v as usize] = 0;
        weight += u64::from(g.vw[v as usize]);
        cut -= gain[v as usize];
        for (u, w) in g.edges(v) {
            if side[u as usize] == 1 {
                gain[u as usize] += 2 * i64::from(w);
                heap.push(gain[u as usize], u);
            }
        }
    }
    (cut, side)
}

/// Fiduccia–Mattheyses refinement of the edge bisection `side` (labels `0`
/// and `1`). Each pass moves boundary vertices one at a time, each from the
/// side heavier for its `parts` share, the highest gain first (the lowest
/// index among equals), negative gains included, and locks them; after a
/// patience of moves without a better cut it rolls back to the best cut seen
/// with both sides under their balance caps.
fn refine(g: &Graph, side: &mut [u8], parts: [usize; 2]) {
    let n = g.n();
    let cap = balance_cap(g, parts);
    let [k0, k1] = parts.map(|k| k as u64);
    let mut c = Cut::new(g, side);
    let mut locked = vec![false; n];
    let mut moves: Vec<u32> = Vec::new();
    let mut heaps = [GainQueue::default(), GainQueue::default()];
    let balanced = |w: &[u64; 2]| w[0] <= cap[0] && w[1] <= cap[1];
    for _ in 0..FM_PASSES {
        heaps.iter_mut().for_each(GainQueue::clear);
        for v in (0..n as u32).filter(|&v| c.on_cut(v)) {
            heaps[c.side[v as usize] as usize].push(c.gain(v), v);
        }
        locked.fill(false);
        moves.clear();
        let start = c.cut;
        let diff = |w: &[u64; 2]| (w[0] * k1).abs_diff(w[1] * k0);
        let mut best = (
            if balanced(&c.weight) { start } else { i64::MAX },
            0,
            diff(&c.weight),
        );
        loop {
            let from = usize::from(c.weight[1] * k0 > c.weight[0] * k1);
            let current = |(gv, v): (i64, u32)| {
                !locked[v as usize]
                    && c.side[v as usize] as usize == from
                    && c.on_cut(v)
                    && gv == c.gain(v)
            };
            let Some((_, v)) = std::iter::from_fn(|| heaps[from].pop()).find(|&e| current(e))
            else {
                break;
            };
            c.flip(v);
            locked[v as usize] = true;
            moves.push(v);
            for &u in g.neighbours(v) {
                if !locked[u as usize] && c.on_cut(u) {
                    heaps[c.side[u as usize] as usize].push(c.gain(u), u);
                }
            }
            if balanced(&c.weight) && (c.cut, diff(&c.weight)) < (best.0, best.2) {
                best = (c.cut, moves.len(), diff(&c.weight));
            } else if moves.len() - best.1 > patience(n) {
                break;
            }
        }
        for &v in moves[best.1..].iter().rev() {
            c.flip(v);
        }
        if best.1 == 0 || c.cut >= start {
            break;
        }
    }
}

/// The most vertex weight each side may hold: `1 + 2·IMBALANCE` times its
/// `parts` share of the total (`1/2 + IMBALANCE` of it for an even split),
/// always the heaviest vertex over its share, and never so much that the
/// other side keeps less than its `parts`.
pub(crate) fn balance_cap(g: &Graph, parts: [usize; 2]) -> [u64; 2] {
    let total = g.total_weight();
    let heaviest = u64::from(g.vw.iter().copied().max().unwrap_or(0));
    let k = (parts[0] + parts[1]) as u64;
    [0, 1].map(|s| {
        let share = parts[s] as f64 / k as f64;
        ((total as f64 * (share + 2.0 * IMBALANCE * share)) as u64)
            .max(total * parts[s] as u64 / k + heaviest)
            .min(total.saturating_sub(parts[1 - s] as u64))
    })
}

/// Non-improving moves an FM pass over `n` vertices makes before it rolls
/// back to its best state: 1 % of them, within 15..=100 (METIS's limit).
pub(crate) fn patience(n: usize) -> usize {
    (n / 100).clamp(15, 100)
}

/// An edge bisection being refined: the sides, each vertex's edge weight to
/// its own side and to the other, the side weights and the cut.
struct Cut<'a> {
    g: &'a Graph,
    side: &'a mut [u8],
    internal: Vec<i64>,
    external: Vec<i64>,
    weight: [u64; 2],
    cut: i64,
}

impl<'a> Cut<'a> {
    fn new(g: &'a Graph, side: &'a mut [u8]) -> Self {
        let n = g.n();
        let mut c = Cut {
            g,
            side,
            internal: vec![0; n],
            external: vec![0; n],
            weight: [0; 2],
            cut: 0,
        };
        for v in 0..n as u32 {
            let (vi, s) = (v as usize, c.side[v as usize]);
            c.weight[s as usize] += u64::from(g.vw[vi]);
            for (u, w) in g.edges(v) {
                if c.side[u as usize] == s {
                    c.internal[vi] += i64::from(w);
                } else {
                    c.external[vi] += i64::from(w);
                    c.cut += i64::from(w);
                }
            }
        }
        c.cut /= 2;
        c
    }

    fn on_cut(&self, v: u32) -> bool {
        self.external[v as usize] > 0
    }

    /// The cut weight moving `v` to the other side saves.
    fn gain(&self, v: u32) -> i64 {
        self.external[v as usize] - self.internal[v as usize]
    }

    /// Moves `v` to the other side, keeping the weights and the cut current.
    fn flip(&mut self, v: u32) {
        let vi = v as usize;
        self.cut -= self.gain(v);
        let from = self.side[vi];
        self.side[vi] = 1 - from;
        self.weight[from as usize] -= u64::from(self.g.vw[vi]);
        self.weight[1 - from as usize] += u64::from(self.g.vw[vi]);
        std::mem::swap(&mut self.internal[vi], &mut self.external[vi]);
        for (u, w) in self.g.edges(v) {
            let (ui, w) = (u as usize, i64::from(w));
            if self.side[ui] == from {
                self.internal[ui] -= w;
                self.external[ui] += w;
            } else {
                self.internal[ui] += w;
                self.external[ui] -= w;
            }
        }
    }
}

/// A max-queue of `(gain, vertex)`, the highest gain first and the lowest
/// vertex among equal gains, packed into one `u64` key per entry. Entries
/// are not updated in place: a caller pushes a vertex again when its gain
/// changes and skips the stale entries it pops.
#[derive(Default)]
pub(crate) struct GainQueue(BinaryHeap<u64>);

impl GainQueue {
    const BIAS: i64 = 1 << 31;

    pub(crate) fn push(&mut self, gain: i64, v: u32) {
        let g = (gain + Self::BIAS).clamp(0, u32::MAX as i64) as u64;
        self.0.push(g << 32 | u64::from(!v));
    }

    fn unpack(key: u64) -> (i64, u32) {
        ((key >> 32) as i64 - Self::BIAS, !(key as u32))
    }

    pub(crate) fn pop(&mut self) -> Option<(i64, u32)> {
        self.0.pop().map(Self::unpack)
    }

    pub(crate) fn peek(&self) -> Option<(i64, u32)> {
        self.0.peek().copied().map(Self::unpack)
    }

    pub(crate) fn clear(&mut self) {
        self.0.clear();
    }
}
