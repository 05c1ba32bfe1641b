//! The four workloads and their seeded inputs.
//!
//! Each workload loads a different layer (see `README.md` for the
//! interaction table). The library never sees the seed: it receives only
//! the load vectors generated here.

use crate::adapter::{unit_loads, Decomposition, Spec};

/// Every workload runs on two ranks: rank threads = cores of this machine.
pub const RANKS: usize = 2;

pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json` and the report.
    pub why: &'static str,
    physics: &'static str,
    dims: (usize, usize, usize),
    quick_dims: (usize, usize, usize),
    decomposition: Decomposition,
    precond: &'static str,
    /// 1 runs `SolveSession::run`; more run `run_multi`.
    pub n_rhs: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "elas2d-edd-gls7",
        why: "Paper's headline configuration; Krylov-bound: SpMV, polynomial apply, Gram-Schmidt and exchanges do the work, setup does not",
        physics: "elasticity2d",
        dims: (100, 100, 1),
        quick_dims: (40, 40, 1),
        decomposition: Decomposition::Edd,
        precond: "gls:7",
        n_rhs: 1,
    },
    Workload {
        name: "elas3d-rdd-direct",
        why: "Factorization-bound: hex8 global assembly and the RCM-profile LDLt of each block row do the work, the Krylov loop almost none",
        physics: "elasticity3d",
        dims: (18, 9, 9),
        quick_dims: (8, 4, 4),
        decomposition: Decomposition::Rdd,
        precond: "direct",
        n_rhs: 1,
    },
    Workload {
        name: "elas3d-edd-twolevel",
        why: "Coarse-setup-bound: host-side global re-assembly and prolongator smoothing of the two-level coarse space, which no other workload touches",
        physics: "elasticity3d",
        dims: (28, 14, 14),
        quick_dims: (8, 4, 4),
        decomposition: Decomposition::Edd,
        precond: "twolevel:rbm.s3:gls-3",
        n_rhs: 1,
    },
    Workload {
        name: "heat2d-rdd-multirhs",
        why: "Same layers used differently: block-row operator with halo exchange, 1 dof per node, one setup amortised over 4 right-hand sides",
        physics: "heat2d",
        dims: (150, 150, 1),
        quick_dims: (40, 40, 1),
        decomposition: Decomposition::Rdd,
        precond: "gls:7",
        n_rhs: 4,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn spec(&self, quick: bool, ranks: usize) -> Spec {
        Spec {
            physics: self.physics,
            dims: if quick { self.quick_dims } else { self.dims },
            decomposition: self.decomposition,
            precond: self.precond,
            ranks,
        }
    }

    /// The load vectors of this workload at `seed`. Single-RHS workloads
    /// blend the unit pull and shear loads by a seeded angle in [40°, 50°);
    /// the multi-RHS workload scales the unit edge flux per node by seeded
    /// factors in [0.95, 1.05), afresh for each right-hand side.
    ///
    /// The ranges are narrow on purpose. Restarted FGMRES is sensitive to
    /// the shape of the load (a pure pull converges in a sixth of the
    /// iterations of a pure shear on `elas2d-edd-gls7`), and a time that
    /// swings with the seed cannot be compared between two seeds. Inside
    /// these ranges the iteration count moves by about one per cent.
    pub fn inputs(&self, seed: u64, quick: bool) -> Vec<Vec<f64>> {
        let (pull, shear) = unit_loads(&self.spec(quick, RANKS));
        let mut rng = SplitMix64::new(seed, self.name);
        if self.n_rhs == 1 {
            let angle = (40.0 + 10.0 * rng.unit()).to_radians();
            let (s, c) = angle.sin_cos();
            return vec![pull
                .iter()
                .zip(&shear)
                .map(|(p, q)| c * p + s * q)
                .collect()];
        }
        (0..self.n_rhs)
            .map(|_| pull.iter().map(|p| p * (0.95 + 0.1 * rng.unit())).collect())
            .collect()
    }
}

/// SplitMix64: the benchmark's own generator, so inputs do not move when
/// the repository's RNGs do.
struct SplitMix64(u64);

impl SplitMix64 {
    /// Seeds from `seed` and the workload name, so one seed gives each
    /// workload its own stream.
    fn new(seed: u64, name: &str) -> Self {
        let salt = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        SplitMix64(seed ^ salt)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}
