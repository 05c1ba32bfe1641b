//! Two-level coarse-space construction on the ranks.
//!
//! The construction itself — partition-of-unity modes, the `λ̂` power
//! iteration, the `.sK` prolongator smoothing, the Galerkin product, the
//! coarse factorization — is [`parfem_precond::twolevel::build_coarse`],
//! written once over the [`CoarseSetup`] hooks. This module supplies the
//! *domain-decomposition* half: the hooks for both distributed operators,
//! the per-part geometry the ranks start from, and [`build_rank_coarse`],
//! the one function every rank body reaches (both strategies, `run` and
//! `run_multi`, blocking and overlapped, faulted and fault-free). No global
//! matrix is built or consulted: the unassembled local distributed format
//! *is* the operator.
//!
//! ## The live-mode protocol
//!
//! A rank holds a mode only while it is *live* there — non-zero on one of
//! the rank's own dofs. It starts with its own part's `modes_per_part`
//! modes; everything else arrives through the two exchange points, both one
//! [`Communicator::exchange_into`] round over the operator's existing
//! neighbour lists with variable-length messages
//! `[mode id, values on the pair's shared dofs]*`, modes in ascending id
//! order, a mode omitted when all its values are zero:
//!
//! - **EDD — interface sum after the product**
//!   ([`CoarseSetup::complete_products`]): each rank multiplies its live
//!   modes with its own unassembled `Â⁽ˢ⁾` and the partial products are
//!   summed at shared dofs. Contributions are added **in rank order** (own
//!   one included at its place), so every rank sharing a dof — cross points
//!   with three or more sharers too — ends with the same bits, and so do
//!   the smoothed prolongation values there. Publishing a freshly built
//!   mode is the same sum with a single contributor.
//! - **RDD — halo gather before the product**
//!   ([`CoarseSetup::refresh_ghosts`]): block rows are disjoint, so a rank
//!   fetches the owners' values at its external columns and multiplies its
//!   full rows `[A_loc | A_ext]`; nothing is summed afterwards.
//!
//! A mode whose values arrive non-zero for the first time becomes live on
//! the receiver, so a mode smoothed `K` times crosses as many subdomains as
//! its support reaches — strips narrower than the smoothing depth need no
//! one-ring assumption.
//!
//! ## Summation order
//!
//! `A_c[m, m'] = Σ_s ẑ_m|ₛᵀ (A_s ẑ_m'|ₛ)`: on each rank the dot runs over
//! the mode's entries in ascending local dof order, and the ranks'
//! contributions are summed by the deterministic rank-ordered
//! [`Communicator::allreduce_sum_into`] on the packed lower triangle; the
//! upper triangle is mirrored. Every rank then factors the identical
//! matrix redundantly.

use crate::dist_vec::EddLayout;
use crate::edd::EddOperator;
use crate::error::SolveError;
use crate::rdd::{RddOperator, RddSystem};
use parfem_krylov::DistributedOperator;
use parfem_mesh::{DofMap, NodePartition};
use parfem_msg::Communicator;
use parfem_precond::twolevel::{
    build_coarse, mode_slot, BuiltCoarse, CoarseBuildInfo, CoarsePartGeometry, CoarseReduce,
    CoarseSetup, CoarseSpec, LiveMode, LocalRows,
};
use parfem_sparse::ldlt::DEFAULT_PIVOT_TOL;
use parfem_trace::alloc::{self, AllocStats};
use parfem_trace::Value;

impl<'a, C: Communicator> CoarseReduce for EddOperator<'a, C> {
    fn coarse_reduce(&self, buf: &mut [f64]) {
        self.comm.allreduce_sum_into(buf);
    }

    fn coarse_work(&self, flops: u64) {
        self.comm.work(flops);
    }
}

impl<'a, C: Communicator> CoarseReduce for RddOperator<'a, C> {
    fn coarse_reduce(&self, buf: &mut [f64]) {
        self.comm.allreduce_sum_into(buf);
    }

    fn coarse_work(&self, flops: u64) {
        self.comm.work(flops);
    }
}

impl<C: Communicator> CoarseSetup for EddOperator<'_, C> {
    fn local_rows(&self) -> LocalRows<'_> {
        LocalRows::square(self.rows())
    }

    fn partition_weights(&self) -> Option<&[f64]> {
        Some(&self.layout.inv_multiplicity)
    }

    fn is_distributed(&self) -> bool {
        true
    }

    fn complete_products(&self, modes: &mut Vec<LiveMode>) {
        sum_mode_interfaces(self.comm, self.layout, modes);
    }
}

impl<C: Communicator> CoarseSetup for RddOperator<'_, C> {
    fn local_rows(&self) -> LocalRows<'_> {
        LocalRows::with_ghosts(&self.sys.a_loc, &self.sys.a_ext, self.sys.ext_dofs.len())
    }

    fn is_distributed(&self) -> bool {
        true
    }

    fn refresh_ghosts(&self, modes: &mut Vec<LiveMode>) {
        gather_mode_ghosts(self.comm, self.sys, modes);
    }
}

/// Stages one message per neighbour: for every mode (ascending id) whose
/// `values` are not all zero on that neighbour's dof list, the mode id
/// followed by its value at every listed dof.
fn stage_mode_messages(
    n_local: usize,
    lists: &[&[usize]],
    modes: &[LiveMode],
    values: impl Fn(&LiveMode) -> &[(usize, f64)],
) -> Vec<Vec<f64>> {
    let mut send = vec![Vec::new(); lists.len()];
    let mut dense = vec![0.0; n_local];
    for mode in modes {
        let entries = values(mode);
        for &(l, v) in entries.iter().filter(|&&(l, _)| l < n_local) {
            dense[l] = v;
        }
        for (dofs, out) in lists.iter().zip(send.iter_mut()) {
            if dofs.iter().any(|&l| dense[l] != 0.0) {
                out.push(mode.id as f64);
                out.extend(dofs.iter().map(|&l| dense[l]));
            }
        }
        for &(l, _) in entries.iter().filter(|&&(l, _)| l < n_local) {
            dense[l] = 0.0;
        }
    }
    send
}

/// The id of the mode record at `offset` of a staged message whose records
/// carry `len` values each; `None` at the end (or on a buffer a failed
/// receive left short — the latched error surfaces at the next status
/// check).
fn record_id(buf: &[f64], offset: usize, len: usize) -> Option<usize> {
    (offset + 1 + len <= buf.len()).then(|| buf[offset] as usize)
}

/// The EDD completion: sums every mode's staged `y` over the interface,
/// contributions in ascending rank order so all sharers of a dof compute
/// the same bits. Modes arriving for the first time are inserted (empty
/// `z`), keeping `modes` sorted by id.
fn sum_mode_interfaces<C: Communicator>(comm: &C, layout: &EddLayout, modes: &mut Vec<LiveMode>) {
    let n = layout.n_local();
    let me = comm.rank();
    let ranks: Vec<usize> = layout.neighbors.iter().map(|(r, _)| *r).collect();
    let shared: Vec<&[usize]> = layout.neighbors.iter().map(|(_, l)| l.as_slice()).collect();
    let send = stage_mode_messages(n, &shared, modes, |mode| &mode.y);
    let mut recv = vec![Vec::new(); ranks.len()];
    comm.exchange_into(&ranks, &send, &mut recv);

    // `mark[l] == epoch`: `acc[l]` holds this mode's running sum;
    // `epoch + 1`: the sum was written back into an existing `y` entry.
    let mut acc = vec![0.0; n];
    let mut mark = vec![0u32; n];
    let mut epoch = 0u32;
    let mut touched: Vec<usize> = Vec::new();
    let mut cursor = vec![0usize; ranks.len()];
    let mut own = 0usize;
    let mut fresh: Vec<LiveMode> = Vec::new();
    let mut adds = 0u64;
    loop {
        let heads: Vec<Option<usize>> = (0..ranks.len())
            .map(|k| record_id(&recv[k], cursor[k], layout.neighbors[k].1.len()))
            .collect();
        let Some(id) = heads
            .iter()
            .flatten()
            .copied()
            .chain(modes.get(own).map(|m| m.id))
            .min()
        else {
            break;
        };
        let has_own = modes.get(own).is_some_and(|m| m.id == id);
        if !heads.contains(&Some(id)) {
            own += 1;
            continue;
        }
        epoch += 2;
        touched.clear();
        let mut add = |l: usize, v: f64| {
            if mark[l] != epoch {
                mark[l] = epoch;
                acc[l] = v;
                touched.push(l);
            } else {
                acc[l] += v;
                adds += 1;
            }
        };
        let mut own_pending = has_own;
        for k in 0..=ranks.len() {
            if own_pending && ranks.get(k).is_none_or(|&r| r > me) {
                own_pending = false;
                for &(l, v) in &modes[own].y {
                    if layout.inv_multiplicity[l] < 1.0 {
                        add(l, v);
                    }
                }
            }
            if k < ranks.len() && heads[k] == Some(id) {
                let dofs = &layout.neighbors[k].1;
                let values = &recv[k][cursor[k] + 1..cursor[k] + 1 + dofs.len()];
                for (&l, &v) in dofs.iter().zip(values) {
                    if v != 0.0 {
                        add(l, v);
                    }
                }
                cursor[k] += 1 + dofs.len();
            }
        }
        if has_own {
            let y = &mut modes[own].y;
            for (l, v) in y.iter_mut() {
                if mark[*l] == epoch {
                    *v = acc[*l];
                    mark[*l] = epoch + 1;
                }
            }
            y.extend(
                touched
                    .iter()
                    .filter(|&&l| mark[l] == epoch)
                    .map(|&l| (l, acc[l])),
            );
            own += 1;
        } else {
            fresh.push(LiveMode {
                id,
                z: Vec::new(),
                y: touched.iter().map(|&l| (l, acc[l])).collect(),
            });
        }
    }
    if !fresh.is_empty() {
        modes.append(&mut fresh);
        modes.sort_by_key(|m| m.id);
    }
    comm.work(adds);
}

/// The RDD refresh: replaces every mode's ghost entries (indices past the
/// owned rows) with the owners' current values. Modes arriving for the
/// first time are inserted, keeping `modes` sorted by id.
fn gather_mode_ghosts<C: Communicator>(comm: &C, sys: &RddSystem, modes: &mut Vec<LiveMode>) {
    let n_loc = sys.n_local();
    // One merged neighbour set: FEM matrices are structurally symmetric, so
    // senders and receivers pair up (as in the operator's own halo gather).
    let ranks: Vec<usize> = sys.send_to.iter().map(|(r, _)| *r).collect();
    let boundary: Vec<&[usize]> = sys.send_to.iter().map(|(_, l)| l.as_slice()).collect();
    let send = stage_mode_messages(n_loc, &boundary, modes, |mode| &mode.z);
    let mut recv = vec![Vec::new(); ranks.len()];
    comm.exchange_into(&ranks, &send, &mut recv);
    for mode in modes.iter_mut() {
        mode.z.retain(|&(g, _)| g < n_loc);
    }
    for ((_, positions), buf) in sys.recv_from.iter().zip(&recv) {
        let mut offset = 0;
        while let Some(id) = record_id(buf, offset, positions.len()) {
            let values = &buf[offset + 1..offset + 1 + positions.len()];
            let mode = mode_slot(modes, id);
            for (&pos, &v) in positions.iter().zip(values) {
                if v != 0.0 {
                    mode.z.push((n_loc + pos, v));
                }
            }
            offset += 1 + positions.len();
        }
    }
}

/// What a rank needs, beyond its operator and scaling, to build its share
/// of the coarse space: prepared on the host before the ranks spawn (it is
/// `O(part size)` bookkeeping, and preparing it there lets an impossible
/// request fail as a typed error instead of inside a rank).
#[derive(Debug, Clone, Copy)]
pub struct CoarsePlan<'a> {
    /// Which coarse space to build.
    pub spec: &'a CoarseSpec,
    /// Displacement components per node (1 scalar, 2 plane, 3 solid).
    pub n_comp: usize,
    /// This rank's part, dofs numbered by the rank's own local rows.
    pub geo: &'a CoarsePartGeometry,
}

/// Per-part coarse geometry of an EDD element partition: one part per
/// subdomain, given as the global dof of each of its local dofs, in the
/// subdomain system's own local order.
///
/// `constrained(part, local_dof)` says which dofs carry a Dirichlet
/// condition and are excluded from the coarse modes: the `DofMap`'s flag
/// for a mesh-level problem. Prebuilt systems have no `DofMap`; for them a
/// row stored as a lone diagonal (how `SubdomainSystem` stores a Dirichlet
/// row) counts. A floating interior dof whose every in-part neighbour is
/// constrained matches that too — harmless, it merely leaves the dof to the
/// smoother.
///
/// `coords` are the mesh node positions (`z = 0` for 2-D meshes); prebuilt
/// raw systems carry none, which leaves only the geometry-free coarse
/// spaces ([`CoarseSpec::Const`], [`CoarseSpec::LowRank`]). `dofs_per_node`
/// is the physics' DOF count per node (1 scalar, 2 plane elasticity, 3
/// solid) — it decodes the interleaved global numbering
/// `dof = dofs_per_node * node + comp`.
///
/// # Errors
/// [`SolveError::Config`] when `spec` is [`CoarseSpec::Rbm`] (plain or
/// smoothed) and `coords` is `None`: rigid-body rotations need node
/// positions.
pub fn edd_part_geometry<'a>(
    spec: &CoarseSpec,
    parts: impl Iterator<Item = &'a [usize]>,
    constrained: impl Fn(usize, usize) -> bool,
    coords: Option<&[[f64; 3]]>,
    dofs_per_node: usize,
) -> Result<Vec<CoarsePartGeometry>, SolveError> {
    assert!(dofs_per_node > 0, "need at least one DOF per node");
    if matches!(spec.base(), CoarseSpec::Rbm) && coords.is_none() {
        return Err(SolveError::Config {
            what: format!("twolevel:{spec} on prebuilt subdomain systems"),
            advice: "rigid-body coarse modes need node coordinates — build the session from \
                     a mesh or use twolevel:const / twolevel:lowrank-K"
                .to_string(),
        });
    }
    Ok(parts
        .enumerate()
        .map(|(part, global_dofs)| {
            let n = global_dofs.len();
            CoarsePartGeometry {
                dofs: (0..n).collect(),
                pos: (global_dofs.iter())
                    .map(|&g| coords.map_or([0.0; 3], |c| c[g / dofs_per_node]))
                    .collect(),
                comp: global_dofs.iter().map(|&g| g % dofs_per_node).collect(),
                constrained: (0..n).map(|l| constrained(part, l)).collect(),
            }
        })
        .collect())
}

/// Per-part coarse geometry of an RDD node partition: one part per rank,
/// dofs node by node in ascending node order — the order of the rank's
/// owned rows. Constraints come from the DOF map; multiplicity is `1`
/// everywhere, block rows being disjoint.
pub fn rdd_part_geometry(
    node_part: &NodePartition,
    dof_map: &DofMap,
    coords: &[[f64; 3]],
) -> Vec<CoarsePartGeometry> {
    let dpn = dof_map.dofs_per_node();
    let mut parts = vec![CoarsePartGeometry::default(); node_part.n_parts()];
    for (node, &owner) in node_part.owners().iter().enumerate() {
        let geo = &mut parts[owner];
        for c in 0..dpn {
            geo.dofs.push(geo.dofs.len());
            geo.pos.push(coords[node]);
            geo.comp.push(c);
            geo.constrained.push(dof_map.is_fixed(node * dpn + c));
        }
    }
    parts
}

/// What one rank's coarse build produced and what it charged to the rank's
/// clock — the "setup that explains itself" record carried on the rank
/// trace, in `solve_summary` and in
/// [`DdSolveOutput::coarse`](crate::DdSolveOutput::coarse).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoarseBuildStats {
    /// Sizes and smoothing constants (identical on every rank except
    /// `live_modes`).
    pub info: CoarseBuildInfo,
    /// Flops charged to the rank clock.
    pub flops: u64,
    /// Point-to-point bytes this rank sent.
    pub bytes_sent: u64,
    /// Neighbour-exchange rounds.
    pub exchanges: u64,
    /// All-reduces.
    pub allreduces: u64,
    /// Modeled seconds the build advanced the rank clock by.
    pub virtual_s: f64,
    /// What the build allocated on the rank's thread (zeros unless a
    /// counting allocator is installed).
    pub allocs: AllocStats,
}

/// Builds this rank's share of the coarse space over its distributed
/// operator — the one coarse-construction entry of every rank body. `mult`
/// and `d` are the dof multiplicity and the scaling diagonal over the
/// rank's rows. The rank's runtime solver is
/// `built.solver(op.partition_weights())`; the live modes and the
/// replicated Galerkin operator stay inspectable next to the factorization.
/// Runs inside a `coarse-build` rank span and stamps the
/// [`CoarseBuildStats`] on the rank trace (counters `coarse_modes`,
/// `coarse_live_modes`, `coarse_nnz`, `coarse_skipped_pivots`, and a
/// `coarse_build` instant with `λ̂`, `ω` and the charges).
pub fn build_rank_coarse<Op>(
    op: &Op,
    plan: CoarsePlan<'_>,
    mult: &[f64],
    d: &[f64],
) -> (BuiltCoarse, CoarseBuildStats)
where
    Op: CoarseSetup + DistributedOperator,
{
    let comm = op.comm();
    let t0 = comm.virtual_time();
    if let Some(t) = comm.tracer() {
        t.span_begin("coarse-build", t0);
    }
    let before = comm.stats();
    let (built, allocs) = alloc::measure(|| {
        build_coarse(
            op,
            plan.spec,
            comm.size(),
            plan.n_comp,
            &[(comm.rank(), plan.geo)],
            mult,
            d,
            DEFAULT_PIVOT_TOL,
        )
    });
    let after = comm.stats();
    let stats = CoarseBuildStats {
        info: built.info,
        flops: after.flops - before.flops,
        bytes_sent: after.bytes_sent - before.bytes_sent,
        exchanges: after.neighbor_exchanges - before.neighbor_exchanges,
        allreduces: after.allreduces - before.allreduces,
        virtual_s: comm.virtual_time() - t0,
        allocs,
    };
    if let Some(t) = comm.tracer() {
        t.add_count("coarse_modes", stats.info.n_modes as u64);
        t.add_count("coarse_live_modes", stats.info.live_modes as u64);
        t.add_count("coarse_nnz", stats.info.nnz as u64);
        t.add_count("coarse_skipped_pivots", stats.info.skipped as u64);
        t.instant("coarse_build", comm.virtual_time(), stats.fields());
        t.span_end("coarse-build", comm.virtual_time());
    }
    (built, stats)
}

impl CoarseBuildStats {
    /// One record for a whole run: the sizes every rank agrees on from rank
    /// 0, the busiest rank's `live_modes` and modeled seconds, and the
    /// flops, bytes and allocations summed over the ranks (`exchanges` and
    /// `allreduces` count collective rounds, the same on every rank).
    /// `None` for a one-level run.
    pub fn over_ranks(ranks: &[CoarseBuildStats]) -> Option<CoarseBuildStats> {
        let mut total = *ranks.first()?;
        for r in &ranks[1..] {
            total.info.live_modes = total.info.live_modes.max(r.info.live_modes);
            total.virtual_s = total.virtual_s.max(r.virtual_s);
            total.flops += r.flops;
            total.bytes_sent += r.bytes_sent;
            total.allocs = total.allocs.merged(r.allocs);
        }
        Some(total)
    }

    /// The record as trace fields (`coarse_*` keys), shared by the rank
    /// `coarse_build` instant and the host `solve_summary`.
    pub fn fields(&self) -> Vec<(String, Value)> {
        let mut fields = vec![
            (
                "coarse_modes".to_string(),
                Value::U64(self.info.n_modes as u64),
            ),
            (
                "coarse_live_modes".to_string(),
                Value::U64(self.info.live_modes as u64),
            ),
            ("coarse_nnz".to_string(), Value::U64(self.info.nnz as u64)),
            (
                "coarse_skipped_pivots".to_string(),
                Value::U64(self.info.skipped as u64),
            ),
            (
                "coarse_lambda_hat".to_string(),
                Value::F64(self.info.lambda_hat),
            ),
            ("coarse_omega".to_string(), Value::F64(self.info.omega)),
            ("coarse_flops".to_string(), Value::U64(self.flops)),
            ("coarse_bytes_sent".to_string(), Value::U64(self.bytes_sent)),
            ("coarse_exchanges".to_string(), Value::U64(self.exchanges)),
            ("coarse_allreduces".to_string(), Value::U64(self.allreduces)),
            ("coarse_virtual_s".to_string(), Value::F64(self.virtual_s)),
        ];
        if alloc::is_counting() {
            fields.push((
                "coarse_alloc_count".to_string(),
                Value::U64(self.allocs.count),
            ));
            fields.push((
                "coarse_alloc_bytes".to_string(),
                Value::U64(self.allocs.bytes),
            ));
        }
        fields
    }
}
