//! Distributed vector formats (paper Definitions 1–2) and the interface sum.
//!
//! A subdomain's slice of a global vector comes in two flavours:
//!
//! - **local distributed** `û⁽ˢ⁾`: only this subdomain's own contributions —
//!   summing `Bₛᵀ û⁽ˢ⁾` over subdomains reconstructs the global vector;
//! - **global distributed** `ū⁽ˢ⁾ = Bₛ u`: the full global values at the
//!   local DOFs — interface entries are *identical* across sharing
//!   subdomains.
//!
//! Conversion local → global is the nearest-neighbour sum
//! `ū⁽ˢ⁾ = ⊕Σ_{∂Ωₛ} û⁽ˢ⁾` (Eq. 28): each pair of neighbouring subdomains
//! swaps its interface contributions and adds what it receives. Conversion
//! global → local divides interface entries by their multiplicity (any
//! splitting works; the uniform one keeps symmetry).

use parfem_fem::subdomain::SubdomainSystem;
use parfem_msg::Communicator;

/// Interface layout of one subdomain: everything needed to run `⊕Σ_{∂Ω}`
/// and deduplicated inner products.
#[derive(Debug, Clone)]
pub struct EddLayout {
    /// Per neighbour: `(rank, shared local DOF indices)` in the canonical
    /// pairing order.
    pub neighbors: Vec<(usize, Vec<usize>)>,
    /// `1 / multiplicity` per local DOF.
    pub inv_multiplicity: Vec<f64>,
    /// Local DOFs shared with at least one neighbour (multiplicity > 1),
    /// ascending. These are the rows a split matvec must compute *before*
    /// posting its interface messages.
    interface_rows: Vec<usize>,
    /// Local DOFs owned exclusively by this subdomain, ascending — the rows
    /// a split matvec computes while interface messages are in flight.
    interior_rows: Vec<usize>,
    /// DOFs per node of the local numbering (`dof = dofs_per_node · node +
    /// component`); a node's DOFs share its multiplicity.
    dofs_per_node: usize,
}

/// Persistent send/receive buffers for
/// [`EddLayout::interface_sum_buffered`].
///
/// The interface sum runs once per matrix–vector product — `degree + 1`
/// times per FGMRES iteration under a polynomial preconditioner — so its
/// per-call send/receive allocations dominate the solver's allocation
/// traffic. Keeping one `ExchangeBuffers` next to the operator reduces
/// that to zero after the first exchange: buffer capacities are retained
/// across rounds.
#[derive(Debug, Clone, Default)]
pub struct ExchangeBuffers {
    /// Neighbour ranks in pairing order (mirrors the layout).
    ranks: Vec<usize>,
    /// Outgoing interface values, one buffer per neighbour.
    send: Vec<Vec<f64>>,
    /// Incoming interface values, one buffer per neighbour.
    recv: Vec<Vec<f64>>,
}

impl ExchangeBuffers {
    /// Empty buffers; sized lazily by the first buffered exchange.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes the per-neighbour buffers for `layout` (idempotent; only the
    /// first call after a layout change allocates).
    fn ensure(&mut self, layout: &EddLayout) {
        if self.ranks.len() != layout.neighbors.len()
            || self
                .ranks
                .iter()
                .zip(&layout.neighbors)
                .any(|(&r, (nr, _))| r != *nr)
        {
            self.ranks.clear();
            self.ranks.extend(layout.neighbors.iter().map(|(r, _)| *r));
            self.send.resize(layout.neighbors.len(), Vec::new());
            self.recv.resize(layout.neighbors.len(), Vec::new());
        }
    }
}

impl EddLayout {
    /// Extracts the layout from an assembled subdomain system.
    pub fn from_system(sys: &SubdomainSystem) -> Self {
        let inv_multiplicity: Vec<f64> = sys.multiplicity.iter().map(|&m| 1.0 / m).collect();
        let (interface_rows, interior_rows) =
            (0..inv_multiplicity.len()).partition(|&l| inv_multiplicity[l] < 1.0);
        EddLayout {
            neighbors: sys
                .neighbors
                .iter()
                .map(|l| (l.rank, l.shared_local_dofs.clone()))
                .collect(),
            inv_multiplicity,
            interface_rows,
            interior_rows,
            dofs_per_node: sys.global_dofs.len() / sys.nodes.len().max(1),
        }
    }

    /// DOFs per node of the local numbering — what decides the storage of
    /// the rank's local matrix (node blocks for 2 or 3, CSR for 1).
    pub fn dofs_per_node(&self) -> usize {
        self.dofs_per_node
    }

    /// Number of local DOFs.
    pub fn n_local(&self) -> usize {
        self.inv_multiplicity.len()
    }

    /// Local DOFs shared with a neighbour (ascending).
    pub fn interface_rows(&self) -> &[usize] {
        &self.interface_rows
    }

    /// Local DOFs private to this subdomain (ascending).
    pub fn interior_rows(&self) -> &[usize] {
        &self.interior_rows
    }

    /// The nearest-neighbour interface sum `v ← ⊕Σ_{∂Ω} v` (Eq. 28) through
    /// persistent [`ExchangeBuffers`]: converts a local distributed vector
    /// into the global distributed format in place, one exchange round with
    /// every neighbour. The send/receive staging reuses the caller's
    /// buffers, so repeated calls allocate nothing; a rank's operator holds
    /// the buffers its interface sums run through.
    ///
    /// # Panics
    /// Panics if `v` has the wrong length.
    pub fn interface_sum_buffered<C: Communicator>(
        &self,
        comm: &C,
        v: &mut [f64],
        bufs: &mut ExchangeBuffers,
    ) {
        assert_eq!(v.len(), self.n_local(), "interface_sum: length mismatch");
        if self.neighbors.is_empty() {
            comm.count_neighbor_exchange();
            return;
        }
        bufs.ensure(self);
        for ((_, dofs), out) in self.neighbors.iter().zip(bufs.send.iter_mut()) {
            out.clear();
            out.extend(dofs.iter().map(|&l| v[l]));
        }
        comm.exchange_into(&bufs.ranks, &bufs.send, &mut bufs.recv);
        for ((_, dofs), buf) in self.neighbors.iter().zip(&bufs.recv) {
            for (&l, &x) in dofs.iter().zip(buf) {
                v[l] += x;
            }
        }
        // 1 add per received interface value.
        let recv_total: usize = bufs.recv.iter().map(|b| b.len()).sum();
        comm.work(recv_total as u64);
    }

    /// The interface sum split around a nonblocking exchange: `v`'s
    /// interface entries (which must already be computed) are posted to the
    /// neighbours via [`Communicator::start_exchange`], `interior(v)` runs
    /// while the messages fly, and the received contributions are added
    /// after [`Communicator::finish_exchange`] — in the same neighbour
    /// order as the blocking form, so the result is **bit-identical** to
    /// running `interior(v)` first and then
    /// [`EddLayout::interface_sum_buffered`]. Only the virtual-time
    /// schedule changes: the communication is credited as
    /// `max(interior compute, message flight)` instead of their sum.
    ///
    /// Counts as one neighbour-exchange round, like the blocking forms.
    ///
    /// # Panics
    /// Panics if `v` has the wrong length.
    pub fn interface_sum_split<C: Communicator>(
        &self,
        comm: &C,
        v: &mut [f64],
        bufs: &mut ExchangeBuffers,
        interior: impl FnOnce(&mut [f64]),
    ) {
        assert_eq!(v.len(), self.n_local(), "interface_sum: length mismatch");
        if self.neighbors.is_empty() {
            comm.count_neighbor_exchange();
            interior(v);
            return;
        }
        bufs.ensure(self);
        for ((_, dofs), out) in self.neighbors.iter().zip(bufs.send.iter_mut()) {
            out.clear();
            out.extend(dofs.iter().map(|&l| v[l]));
        }
        let handle = comm.start_exchange(&bufs.ranks, &bufs.send);
        interior(v);
        comm.finish_exchange(handle, &bufs.ranks, &mut bufs.recv);
        for ((_, dofs), buf) in self.neighbors.iter().zip(&bufs.recv) {
            for (&l, &x) in dofs.iter().zip(buf) {
                v[l] += x;
            }
        }
        let recv_total: usize = bufs.recv.iter().map(|b| b.len()).sum();
        comm.work(recv_total as u64);
    }

    /// Converts a global distributed vector to local distributed in place by
    /// multiplicity weighting (`Σ Bᵀ` of the result reproduces the global
    /// vector). No communication.
    pub fn to_local_distributed(&self, v: &mut [f64]) {
        for (vi, w) in v.iter_mut().zip(&self.inv_multiplicity) {
            *vi *= w;
        }
    }

    /// Local partial of the deduplicated inner product of two *global
    /// distributed* vectors: `Σ_l x_l y_l / mult_l`. Summed across ranks
    /// (all-reduce) this equals the true global `⟨x, y⟩` (Eq. 33–35).
    pub fn dot_partial(&self, x: &[f64], y: &[f64]) -> f64 {
        assert_eq!(x.len(), self.n_local(), "dot_partial: x length mismatch");
        assert_eq!(y.len(), self.n_local(), "dot_partial: y length mismatch");
        x.iter()
            .zip(y)
            .zip(&self.inv_multiplicity)
            .map(|((a, b), w)| a * b * w)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfem_fem::{assembly, Material, SubdomainSystem};
    use parfem_mesh::{DofMap, Edge, ElementPartition, QuadMesh};
    use parfem_msg::{run_ranks, MachineModel};

    fn systems(nx: usize, ny: usize, p: usize) -> (Vec<SubdomainSystem>, usize) {
        let mesh = QuadMesh::cantilever(nx, ny);
        let mut dm = DofMap::new(mesh.n_nodes());
        dm.clamp_edge(&mesh, Edge::Left);
        let mat = Material::unit();
        let mut loads = vec![0.0; dm.n_dofs()];
        assembly::edge_load(&mesh, &dm, Edge::Right, 0.0, -1.0, &mut loads);
        let part = ElementPartition::strips_x(&mesh, p);
        let systems: Vec<SubdomainSystem> = part
            .subdomains_of(&mesh)
            .iter()
            .map(|s| SubdomainSystem::build(&mesh, &dm, &mat, s, &loads, false))
            .collect();
        (systems, dm.n_dofs())
    }

    #[test]
    fn interface_sum_reproduces_global_gather() {
        // For a global vector u, restrict to local, weight to local
        // distributed, interface-sum -> must reproduce the restriction
        // (global distributed) exactly.
        let (systems, n) = systems(6, 2, 3);
        let u: Vec<f64> = (0..n).map(|i| (i as f64) * 0.5 - 3.0).collect();
        let out = run_ranks(3, MachineModel::ideal(), |comm| {
            let sys = &systems[comm.rank()];
            let layout = EddLayout::from_system(sys);
            let mut v = sys.restrict(&u);
            layout.to_local_distributed(&mut v);
            let mut bufs = ExchangeBuffers::new();
            layout.interface_sum_buffered(comm, &mut v, &mut bufs);
            // Compare against the plain restriction.
            let want = sys.restrict(&u);
            v.iter()
                .zip(&want)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0_f64, f64::max)
        });
        for err in out.results {
            assert!(err < 1e-12, "max deviation {err}");
        }
    }

    #[test]
    fn dot_partial_sums_to_true_inner_product() {
        let (systems, n) = systems(8, 2, 4);
        let x: Vec<f64> = (0..n).map(|i| ((i % 5) as f64) - 2.0).collect();
        let y: Vec<f64> = (0..n).map(|i| ((i % 3) as f64) + 0.5).collect();
        let want: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        let out = run_ranks(4, MachineModel::ideal(), |comm| {
            let sys = &systems[comm.rank()];
            let layout = EddLayout::from_system(sys);
            let xl = sys.restrict(&x);
            let yl = sys.restrict(&y);
            comm.allreduce_sum_scalar(layout.dot_partial(&xl, &yl))
        });
        for got in out.results {
            assert!((got - want).abs() < 1e-10 * want.abs().max(1.0));
        }
    }

    #[test]
    fn single_rank_interface_sum_is_identity() {
        let (systems, n) = systems(3, 2, 1);
        let u: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let out = run_ranks(1, MachineModel::ideal(), |comm| {
            let sys = &systems[0];
            let layout = EddLayout::from_system(sys);
            let mut v = sys.restrict(&u);
            let mut bufs = ExchangeBuffers::new();
            layout.interface_sum_buffered(comm, &mut v, &mut bufs);
            v
        });
        assert_eq!(out.results[0], u);
        // The exchange is still *counted* (it is a communication point in
        // the algorithm), even though a lone rank sends nothing.
        assert_eq!(out.reports[0].stats.neighbor_exchanges, 1);
        assert_eq!(out.reports[0].stats.sends, 0);
    }

    #[test]
    fn interface_and_interior_rows_partition_the_local_dofs() {
        let (systems, _) = systems(6, 2, 3);
        for sys in &systems {
            let layout = EddLayout::from_system(sys);
            let mut all: Vec<usize> = layout
                .interface_rows()
                .iter()
                .chain(layout.interior_rows())
                .copied()
                .collect();
            all.sort_unstable();
            assert_eq!(all, (0..layout.n_local()).collect::<Vec<_>>());
            // Interface rows are exactly the shared (multiplicity > 1) DOFs,
            // which is the union of the neighbour send lists.
            for (_, dofs) in &layout.neighbors {
                for d in dofs {
                    assert!(layout.interface_rows().binary_search(d).is_ok());
                }
            }
            for &l in layout.interface_rows() {
                assert!(layout.inv_multiplicity[l] < 1.0);
            }
        }
    }

    #[test]
    fn split_interface_sum_is_bit_identical_to_blocking() {
        let (systems, n) = systems(8, 3, 4);
        let u: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let out = run_ranks(4, MachineModel::ideal(), |comm| {
            let sys = &systems[comm.rank()];
            let layout = EddLayout::from_system(sys);
            let mut bufs = ExchangeBuffers::new();
            // Blocking: interior written first, then the plain sum.
            let mut blocking = sys.restrict(&u);
            layout.to_local_distributed(&mut blocking);
            for &l in layout.interior_rows() {
                blocking[l] *= 2.0;
            }
            layout.interface_sum_buffered(comm, &mut blocking, &mut bufs);
            // Split: interface entries ready up front, interior written
            // while the messages are in flight.
            let mut split = sys.restrict(&u);
            layout.to_local_distributed(&mut split);
            layout.interface_sum_split(comm, &mut split, &mut bufs, |v| {
                for &l in layout.interior_rows() {
                    v[l] *= 2.0;
                }
            });
            (blocking, split, comm.stats().neighbor_exchanges)
        });
        for (blocking, split, exchanges) in out.results {
            assert_eq!(blocking, split, "split sum must be bit-identical");
            assert_eq!(exchanges, 2, "each form counts one exchange round");
        }
    }

    #[test]
    fn matvec_identity_under_interface_sum() {
        // y_global = K x == gathers of (local spmv + interface sum).
        let mesh = QuadMesh::cantilever(6, 2);
        let mut dm = DofMap::new(mesh.n_nodes());
        dm.clamp_edge(&mesh, Edge::Left);
        let mat = Material::unit();
        let loads = vec![0.0; dm.n_dofs()];
        let sys_global = assembly::build_static(&mesh, &dm, &mat, &loads);
        let part = ElementPartition::strips_x(&mesh, 3);
        let systems: Vec<SubdomainSystem> = part
            .subdomains_of(&mesh)
            .iter()
            .map(|s| SubdomainSystem::build(&mesh, &dm, &mat, s, &loads, false))
            .collect();
        let x: Vec<f64> = (0..dm.n_dofs())
            .map(|i| ((i * 3 % 11) as f64) - 5.0)
            .collect();
        let y_want = sys_global.stiffness.spmv(&x);
        let out = run_ranks(3, MachineModel::ideal(), |comm| {
            let sys = &systems[comm.rank()];
            let layout = EddLayout::from_system(sys);
            let xl = sys.restrict(&x);
            let mut yl = parfem_sparse::CsrMatrix::from_rows(&sys.k_local).spmv(&xl);
            let mut bufs = ExchangeBuffers::new();
            layout.interface_sum_buffered(comm, &mut yl, &mut bufs);
            // Compare with the restriction of the global product.
            let want = sys.restrict(&y_want);
            yl.iter()
                .zip(&want)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0_f64, f64::max)
        });
        for err in out.results {
            assert!(err < 1e-9, "max deviation {err}");
        }
    }
}
