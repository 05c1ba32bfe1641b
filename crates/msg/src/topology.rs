//! Composable network topologies and collective algorithms.
//!
//! The flat `α + bytes/β` model of [`crate::model`] treats every rank pair
//! as a dedicated wire — adequate for the paper's 8-processor SP2/Origin
//! runs, but wrong at P=64..4096 where messages share links and the
//! all-reduce tree descends a physical hierarchy. This module factors the
//! network out of [`MachineModel`](crate::model::MachineModel) into:
//!
//! - [`Link`] — one latency/bandwidth pair;
//! - [`Topology`] — how ranks map onto links: [`Topology::Flat`] (the
//!   legacy uniform network, **bit-identical** to the pre-topology model),
//!   [`Topology::TwoLevel`] (node + network hierarchy of a modern
//!   cluster), [`Topology::FatTree`] and [`Topology::Torus3d`];
//! - [`CollectiveAlgo`] — how an all-reduce descends the topology:
//!   [`CollectiveAlgo::FlatTree`] (the legacy `⌈log₂P⌉` formula),
//!   [`CollectiveAlgo::Tree`] (hierarchical per-level combine) and
//!   [`CollectiveAlgo::RecursiveDoubling`] (distance-doubling exchange).
//!
//! # Contention
//!
//! When one rank posts several messages in a single exchange round, the
//! messages that traverse the same physical link serialize: each is
//! charged `latency + k · bytes/bandwidth`, where `k` is the number of
//! round-mates sharing that link ([`Topology::contention_factors`]).
//! Factors are a pure function of the topology and the neighbour list —
//! *never* of thread scheduling — so contended runs stay bit-for-bit
//! deterministic. The flat topology reports no shared links, preserving
//! the legacy dedicated-wire semantics exactly.

/// One network link class: a latency/bandwidth pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// One-way message latency in seconds.
    pub latency_s: f64,
    /// Sustained bandwidth in bytes per second.
    pub bandwidth_bytes_per_s: f64,
}

impl Link {
    /// A link with the given latency (seconds) and bandwidth (bytes/s).
    pub const fn new(latency_s: f64, bandwidth_bytes_per_s: f64) -> Self {
        Link {
            latency_s,
            bandwidth_bytes_per_s,
        }
    }

    /// Time for `bytes` to traverse this link: `α + bytes/β`.
    pub fn transfer_time(&self, bytes: usize) -> f64 {
        self.latency_s + bytes as f64 / self.bandwidth_bytes_per_s
    }

    /// Transfer time when `factor` messages share the link in one round:
    /// the serialization multiplies the bandwidth term, not the latency.
    pub fn transfer_time_shared(&self, bytes: usize, factor: f64) -> f64 {
        self.latency_s + factor * (bytes as f64 / self.bandwidth_bytes_per_s)
    }
}

/// How `P` virtual ranks map onto physical links.
#[derive(Debug, Clone, PartialEq)]
pub enum Topology {
    /// Uniform all-to-all network: every pair owns a dedicated wire of the
    /// given link class. This is the legacy machine model — its
    /// [`Topology::message_time`] evaluates *exactly* the historical
    /// `latency + bytes/bandwidth` expression, and it never reports
    /// contention, so pre-topology solves stay bit-identical.
    Flat(Link),
    /// Two-level hierarchy of a modern cluster: ranks are packed
    /// `node_size` per node (rank `r` lives on node `r / node_size`);
    /// same-node messages use the `intra` link (shared memory / NVLink
    /// class), cross-node messages use the `inter` link (NIC + switch) and
    /// share the sender's single node uplink.
    TwoLevel {
        /// Ranks per node.
        node_size: usize,
        /// Intra-node link (latency/bandwidth of the memory fabric).
        intra: Link,
        /// Inter-node link (end-to-end NIC-to-NIC through the switch).
        inter: Link,
    },
    /// A fat tree with `radix` leaves per edge switch: the hop count to the
    /// lowest common ancestor sets the latency (2 hops per level, up and
    /// down), bandwidth is full-bisection per link. Messages leaving the
    /// sender's edge switch share the sender's uplink.
    FatTree {
        /// Leaves (ranks) per edge switch, and the fan-out of every level.
        radix: usize,
        /// Per-hop link class.
        link: Link,
    },
    /// A 3-D torus: ranks are folded into a near-cubic `nx × ny × nz` grid
    /// (recomputed from `P` per call), cost is Manhattan hop distance with
    /// wraparound times the per-hop latency plus one serialization.
    /// Messages taking the same first-hop direction share that physical
    /// link.
    Torus3d {
        /// Per-hop link class.
        link: Link,
    },
}

impl Topology {
    /// The representative (nearest-peer) link: what one hop costs. For
    /// [`Topology::Flat`] this is *the* link of the legacy model.
    pub fn base_link(&self) -> Link {
        match *self {
            Topology::Flat(link) => link,
            Topology::TwoLevel { intra, .. } => intra,
            Topology::FatTree { link, .. } => link,
            Topology::Torus3d { link } => link,
        }
    }

    /// Near-cubic factorization `nx ≥ ny ≥ nz` with `nx·ny·nz ≥ p`, used
    /// to fold `p` ranks into the torus.
    pub fn torus_dims(p: usize) -> [usize; 3] {
        let p = p.max(1);
        let c = (p as f64).cbrt().floor().max(1.0) as usize;
        let mut nz = c;
        while nz > 1 && !p.is_multiple_of(nz) {
            nz -= 1;
        }
        let rest = p / nz;
        let s = (rest as f64).sqrt().floor().max(1.0) as usize;
        let mut ny = s;
        while ny > 1 && !rest.is_multiple_of(ny) {
            ny -= 1;
        }
        [rest / ny, ny, nz]
    }

    /// Torus coordinates of `rank` in the `p`-rank folding.
    fn torus_coord(p: usize, rank: usize) -> ([usize; 3], [usize; 3]) {
        let dims = Self::torus_dims(p);
        let x = rank % dims[0];
        let y = (rank / dims[0]) % dims[1];
        let z = rank / (dims[0] * dims[1]);
        ([x, y, z], dims)
    }

    /// Ring distance between `a` and `b` on a ring of length `n`, and the
    /// step direction (+1/-1) of the shorter way.
    fn ring_step(a: usize, b: usize, n: usize) -> (usize, i32) {
        let fwd = (b + n - a) % n;
        let bwd = (a + n - b) % n;
        if fwd <= bwd {
            (fwd, 1)
        } else {
            (bwd, -1)
        }
    }

    /// Level of the lowest common ancestor switch of two leaves, counted
    /// from the leaves: `1` when both hang off the same edge switch (a
    /// 2-hop path through it), `2` one level higher (4 hops), and so on.
    fn fat_tree_lca_level(radix: usize, from: usize, to: usize) -> u32 {
        let radix = radix.max(2);
        let mut l = 1u32;
        let (mut a, mut b) = (from / radix, to / radix);
        while a != b {
            a /= radix;
            b /= radix;
            l += 1;
        }
        l
    }

    /// Modeled time of one `bytes`-sized message from `from` to `to` in a
    /// `p`-rank job, uncontended.
    ///
    /// For [`Topology::Flat`] this is exactly `latency + bytes/bandwidth`
    /// regardless of the pair — the legacy expression, preserved
    /// operation-for-operation for bit reproducibility.
    pub fn message_time(&self, p: usize, from: usize, to: usize, bytes: usize) -> f64 {
        self.message_time_contended(p, from, to, bytes, 1.0)
    }

    /// [`Topology::message_time`] with a link-sharing `factor` (≥ 1): the
    /// bandwidth term of the bottleneck link is multiplied by `factor`.
    /// `factor == 1.0` reproduces the uncontended expression exactly.
    pub fn message_time_contended(
        &self,
        p: usize,
        from: usize,
        to: usize,
        bytes: usize,
        factor: f64,
    ) -> f64 {
        match *self {
            Topology::Flat(link) => {
                if factor > 1.0 {
                    link.transfer_time_shared(bytes, factor)
                } else {
                    // The legacy expression, verbatim.
                    link.latency_s + bytes as f64 / link.bandwidth_bytes_per_s
                }
            }
            Topology::TwoLevel {
                node_size,
                intra,
                inter,
            } => {
                let ns = node_size.max(1);
                let link = if from / ns == to / ns { intra } else { inter };
                if factor > 1.0 {
                    link.transfer_time_shared(bytes, factor)
                } else {
                    link.transfer_time(bytes)
                }
            }
            Topology::FatTree { radix, link } => {
                let l = Self::fat_tree_lca_level(radix, from, to);
                let hops = 2.0 * l as f64;
                hops * link.latency_s
                    + factor.max(1.0) * (bytes as f64 / link.bandwidth_bytes_per_s)
            }
            Topology::Torus3d { link } => {
                let (a, dims) = Self::torus_coord(p, from);
                let (b, _) = Self::torus_coord(p, to);
                let mut hops = 0usize;
                for d in 0..3 {
                    hops += Self::ring_step(a[d], b[d], dims[d]).0;
                }
                hops.max(1) as f64 * link.latency_s
                    + factor.max(1.0) * (bytes as f64 / link.bandwidth_bytes_per_s)
            }
        }
    }

    /// The id of the shared physical link a message from `from` to `to`
    /// rides, or `None` when the message has a dedicated path. Two
    /// messages in one batch with equal `Some` ids serialize.
    fn shared_link(&self, p: usize, from: usize, to: usize) -> Option<u64> {
        match *self {
            // Legacy semantics: every pair owns its wire.
            Topology::Flat(_) => None,
            Topology::TwoLevel { node_size, .. } => {
                let ns = node_size.max(1);
                if from / ns == to / ns {
                    None
                } else {
                    // All cross-node traffic from this rank funnels through
                    // the node's single uplink.
                    Some(1 + (from / ns) as u64)
                }
            }
            Topology::FatTree { radix, .. } => {
                if Self::fat_tree_lca_level(radix, from, to) > 1 {
                    // Traffic leaving the edge switch shares the sender's
                    // uplink.
                    Some(1 + (from / radix.max(2)) as u64)
                } else {
                    None
                }
            }
            Topology::Torus3d { .. } => {
                let (a, dims) = Self::torus_coord(p, from);
                let (b, _) = Self::torus_coord(p, to);
                // The first traversed axis' directed link out of `from`.
                for d in 0..3 {
                    let (dist, dir) = Self::ring_step(a[d], b[d], dims[d]);
                    if dist > 0 {
                        return Some(1 + 2 * d as u64 + u64::from(dir < 0));
                    }
                }
                None
            }
        }
    }

    /// Link-sharing factor of the message `from → to` inside one rank's
    /// batch of sends to `neighbors`: the number of batch messages
    /// (including this one) that traverse its shared link, or `1.0` for a
    /// dedicated path. Pure in `(topology, p, from, to, neighbors)` — thread
    /// scheduling cannot perturb it — and allocation-free, so the thread
    /// communicator evaluates it on every exchange.
    pub(crate) fn contention_factor(
        &self,
        p: usize,
        from: usize,
        to: usize,
        neighbors: &[usize],
    ) -> f64 {
        match self.shared_link(p, from, to) {
            None => 1.0,
            Some(link) => (neighbors.iter())
                .filter(|&&other| self.shared_link(p, from, other) == Some(link))
                .count() as f64,
        }
    }

    /// Link-sharing factors for one rank's batch of sends to `neighbors`:
    /// `factor[i]` is the number of batch messages (including message `i`
    /// itself) that traverse message `i`'s shared link, or `1.0` for a
    /// dedicated path. Pure in `(topology, p, from, neighbors)` — thread
    /// scheduling cannot perturb it.
    pub fn contention_factors(&self, p: usize, from: usize, neighbors: &[usize]) -> Vec<f64> {
        (neighbors.iter())
            .map(|&to| self.contention_factor(p, from, to, neighbors))
            .collect()
    }
}

/// How an all-reduce of `bytes` across `p` ranks descends the topology.
#[derive(Debug, Clone, PartialEq)]
pub enum CollectiveAlgo {
    /// The legacy formula: `⌈log₂P⌉ · (reduce_latency + bytes/bandwidth)`
    /// on the topology's base link — kept for bit-identity with the
    /// pre-topology SP2/Origin/ideal presets.
    FlatTree {
        /// Per-tree-stage latency in seconds.
        reduce_latency_s: f64,
    },
    /// Hierarchical binary tree: combine within the lowest topology level
    /// first, then across levels, each of the `O(log P)` stages charged
    /// its own level's link cost.
    Tree,
    /// Recursive doubling: `⌈log₂P⌉` pairwise exchange stages; stage `k`
    /// partners ranks at distance `2^k`, so later stages traverse wider
    /// (more expensive) parts of the topology.
    RecursiveDoubling,
}

impl CollectiveAlgo {
    /// Modeled all-reduce time over `topo`. Zero for `p ≤ 1`.
    pub fn allreduce_time(&self, topo: &Topology, p: usize, bytes: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let stages = |n: usize| (n as f64).log2().ceil();
        match self {
            CollectiveAlgo::FlatTree { reduce_latency_s } => {
                let link = topo.base_link();
                // The legacy expression, verbatim.
                stages(p) * (reduce_latency_s + bytes as f64 / link.bandwidth_bytes_per_s)
            }
            CollectiveAlgo::Tree => match *topo {
                Topology::Flat(link) => stages(p) * link.transfer_time(bytes),
                Topology::TwoLevel {
                    node_size,
                    intra,
                    inter,
                } => {
                    let ns = node_size.max(1);
                    let local = ns.min(p);
                    let nodes = p.div_ceil(ns);
                    let mut t = stages(local) * intra.transfer_time(bytes);
                    if nodes > 1 {
                        t += stages(nodes) * inter.transfer_time(bytes);
                    }
                    t
                }
                Topology::FatTree { radix, link } => {
                    // One combine round per tree level; a level-l round
                    // moves messages between children of a level-l switch
                    // (2l hops), log2(radix) binary stages per level.
                    let radix = radix.max(2);
                    let mut t = 0.0;
                    let mut span = 1usize;
                    let mut l = 1u32;
                    while span < p {
                        let group = radix.min(p.div_ceil(span));
                        t += stages(group)
                            * (2.0 * l as f64 * link.latency_s
                                + bytes as f64 / link.bandwidth_bytes_per_s);
                        span *= radix;
                        l += 1;
                    }
                    t
                }
                Topology::Torus3d { link } => {
                    // Recursive halving along each ring. Under cut-through
                    // routing the partner distance does not add latency, so
                    // every stage costs one link traversal and the total is
                    // `Σ_d ⌈log₂ n_d⌉ = O(log p)` stages.
                    let dims = Topology::torus_dims(p);
                    let mut t = 0.0;
                    for n in dims {
                        t += stages(n.max(1)) * link.transfer_time(bytes);
                    }
                    t
                }
            },
            CollectiveAlgo::RecursiveDoubling => {
                // Representative pair (0, 2^k) prices each stage.
                let mut t = 0.0;
                let mut k = 0u32;
                while (1usize << k) < p {
                    let partner = (1usize << k).min(p - 1);
                    t += topo.message_time(p, 0, partner, bytes);
                    k += 1;
                }
                t
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L: Link = Link::new(1e-6, 1e9);

    #[test]
    fn flat_message_time_is_the_legacy_expression() {
        let topo = Topology::Flat(Link::new(40e-6, 35e6));
        for &bytes in &[0usize, 64, 1 << 20] {
            let legacy = 40e-6 + bytes as f64 / 35e6;
            // Bit-identical, not approximately equal.
            assert_eq!(topo.message_time(8, 0, 5, bytes), legacy);
        }
    }

    #[test]
    fn flat_reports_no_contention() {
        let topo = Topology::Flat(L);
        let f = topo.contention_factors(8, 0, &[1, 2, 3, 4, 5, 6, 7]);
        assert!(f.iter().all(|&x| x == 1.0));
    }

    #[test]
    fn two_level_contends_on_the_node_uplink() {
        let topo = Topology::TwoLevel {
            node_size: 4,
            intra: Link::new(0.2e-6, 50e9),
            inter: Link::new(1.5e-6, 12.5e9),
        };
        // Rank 0: one intra-node peer, three cross-node peers.
        let f = topo.contention_factors(16, 0, &[1, 4, 8, 12]);
        assert_eq!(f, vec![1.0, 3.0, 3.0, 3.0]);
        // Intra-node messages ride the cheap link.
        assert!(topo.message_time(16, 0, 1, 1024) < topo.message_time(16, 0, 4, 1024));
    }

    #[test]
    fn contention_is_monotone_in_link_load() {
        let topo = Topology::TwoLevel {
            node_size: 4,
            intra: Link::new(0.2e-6, 50e9),
            inter: Link::new(1.5e-6, 12.5e9),
        };
        // More concurrent cross-node messages => every shared factor grows,
        // and the modeled per-message time grows with it.
        let mut last = 0.0;
        for k in 1..=6usize {
            let neighbors: Vec<usize> = (0..k).map(|i| 4 + 4 * i).collect();
            let f = topo.contention_factors(32, 0, &neighbors);
            assert!(f.iter().all(|&x| x == k as f64));
            let t = topo.message_time_contended(32, 0, 4, 8192, f[0]);
            assert!(t > last, "modeled time must grow with load: {t} vs {last}");
            last = t;
        }
    }

    #[test]
    fn fat_tree_latency_grows_with_lca_distance() {
        let topo = Topology::FatTree { radix: 4, link: L };
        // Same edge switch: 2 hops; adjacent switch: 4 hops; far: 6 hops.
        let near = topo.message_time(64, 0, 1, 0);
        let mid = topo.message_time(64, 0, 5, 0);
        let far = topo.message_time(64, 0, 60, 0);
        assert!(near < mid && mid < far);
        assert_eq!(near, 2.0 * L.latency_s);
        assert_eq!(mid, 4.0 * L.latency_s);
    }

    #[test]
    fn torus_dims_cover_p() {
        for p in [1usize, 2, 8, 27, 64, 100, 256, 1024, 4096] {
            let d = Topology::torus_dims(p);
            assert_eq!(d[0] * d[1] * d[2], p, "dims {d:?} for p={p}");
        }
    }

    #[test]
    fn torus_first_hop_links_serialize() {
        let topo = Topology::Torus3d { link: L };
        // p=64 folds to 4x4x4. Neighbors +x (rank 1) and far +x (rank 2)
        // leave on the same +x link; -x (rank 3, wraparound) does not.
        let f = topo.contention_factors(64, 0, &[1, 2, 3]);
        assert_eq!(f, vec![2.0, 2.0, 1.0]);
    }

    #[test]
    fn tree_allreduce_matches_closed_form_on_two_level() {
        let intra = Link::new(0.2e-6, 50e9);
        let inter = Link::new(1.5e-6, 12.5e9);
        let topo = Topology::TwoLevel {
            node_size: 32,
            intra,
            inter,
        };
        let bytes = 64usize;
        for p in [64usize, 256, 1024, 4096] {
            let nodes = p.div_ceil(32);
            let expect = (32f64).log2().ceil() * intra.transfer_time(bytes)
                + (nodes as f64).log2().ceil() * inter.transfer_time(bytes);
            let got = CollectiveAlgo::Tree.allreduce_time(&topo, p, bytes);
            assert!((got - expect).abs() < 1e-18, "p={p}: {got} vs {expect}");
        }
    }

    #[test]
    fn tree_allreduce_scales_logarithmically() {
        let topo = Topology::TwoLevel {
            node_size: 32,
            intra: Link::new(0.2e-6, 50e9),
            inter: Link::new(1.5e-6, 12.5e9),
        };
        // Quadrupling P adds exactly 2 inter-node tree stages (node count
        // ×4 ⇒ +2 doublings): the growth is additive in log₂P, not
        // multiplicative in P.
        let t: Vec<f64> = [64usize, 256, 1024, 4096]
            .iter()
            .map(|&p| CollectiveAlgo::Tree.allreduce_time(&topo, p, 8))
            .collect();
        let steps: Vec<f64> = t.windows(2).map(|w| w[1] - w[0]).collect();
        for w in steps.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-15, "log-linear growth: {steps:?}");
        }
        assert!(t[3] > t[0]);
    }

    #[test]
    fn tree_reduces_to_flat_model_at_p2() {
        // On a flat topology whose reduce latency equals the link latency
        // (true for every legacy preset), one tree stage == one flat stage.
        let link = Link::new(40e-6, 35e6);
        let topo = Topology::Flat(link);
        let flat = CollectiveAlgo::FlatTree {
            reduce_latency_s: 40e-6,
        };
        let bytes = 128usize;
        assert_eq!(
            CollectiveAlgo::Tree.allreduce_time(&topo, 2, bytes),
            flat.allreduce_time(&topo, 2, bytes)
        );
        assert_eq!(CollectiveAlgo::Tree.allreduce_time(&topo, 1, bytes), 0.0);
    }

    #[test]
    fn recursive_doubling_is_log_p_stages() {
        let topo = Topology::Flat(L);
        let t = CollectiveAlgo::RecursiveDoubling.allreduce_time(&topo, 1024, 8);
        let one = topo.message_time(1024, 0, 1, 8);
        assert!((t - 10.0 * one).abs() < 1e-18);
    }
}
