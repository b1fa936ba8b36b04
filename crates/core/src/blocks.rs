//! The execution driver: one SSP-RK3 stepper over one cell-block sweep.
//!
//! The paper's parallel design (§IV, Fig. 3) is one kinetic sweep cut two
//! ways: configuration slabs across MPI ranks, and shared-memory workers
//! inside a rank. [`Driver`] is that sweep. Configuration space is split
//! into contiguous dim-0 **cell blocks** — `ranks` slabs, each sub-split
//! into `threads` pieces — and every block evaluates its own volume +
//! surface + LBO contributions. With one thread the blocks run in order on
//! the calling thread and write the output field directly; with more they
//! run on the persistent workers of the rayon-shim [`ThreadPool`]. The
//! field coupling ([`VlasovMaxwell::field_rhs`]) follows the sweep, and
//! [`ssp_rk3`] strings three coupled RHS evaluations into a step, folding
//! each stage's wall rates into the ledger with [`STAGE_WEIGHTS`].
//!
//! **Bit-identity.** The reference sweep's contribution order within one
//! output cell ([`VlasovOp::accumulate_rhs`]) is volume → dim-0 faces
//! (one-sided writes) → higher configuration faces → velocity faces → LBO.
//! Every one of those contributions comes exclusively from the cell's
//! owning block: dim-0 faces write one side each (both adjacent blocks
//! evaluate the shared flux, the paper's redundant-halo-flux trick),
//! `d ≥ 1` faces never leave a dim-0 row, and velocity faces and the LBO
//! never leave a configuration cell. So each output cell receives exactly
//! the reference sequence of additions no matter how many blocks there are
//! or how many run concurrently — every (ranks, threads) pair produces the
//! same bits *by construction* (`tests/threaded_equiv.rs`,
//! `tests/backend_equiv.rs` and `tests/parallel_equiv.rs` assert it).
//!
//! **Deterministic ledger reduction.** Each block accumulates wall-flux
//! partials into its own workspace; after the sweep the calling thread
//! reduces them in ascending block order — lower-wall blocks first,
//! interior, upper-wall blocks last. Dim-0 wall channels are wholly owned
//! by the first/last block, so the 1D ledger is bit-identical for every
//! decomposition.
//!
//! **Zero allocation.** Per-block [`VlasovWorkspace`]/[`LboScratch`]
//! instances and the stage buffers persist across steps, pool workers
//! reach their output cells through [`DgFieldSlice::from_raw`] (no
//! per-call view `Vec`), and the pool's `broadcast` publishes work through
//! a fixed command slot — whole steps pass the counting-allocator gate in
//! `tests/alloc_free.rs`.

// Stencil/loop style: index-coupled per-dimension sweeps index several arrays in lockstep;
// `needless_range_loop` rewrites would obscure that (workspace allow
// was scoped down to the modules that need it).
#![allow(clippy::needless_range_loop)]
use std::ops::Range;
use std::sync::{Arc, Mutex};

use dg_grid::slab::slab_ranges;
use dg_grid::{CellStoreMut, DgField, DgFieldSlice, DimBc, PhaseGrid};
use rayon::ThreadPool;

use dg_telemetry::{Counter, Phase, Registry};

use crate::cfl;
use crate::error::Error;
use crate::lbo::LboScratch;
use crate::ssprk::{ssp_rk3, STAGE_WEIGHTS};
use crate::system::{SystemState, VlasovMaxwell};
use crate::vlasov::{VlasovOp, VlasovWorkspace, WallAccum};

/// Contiguous dim-0 cell blocks: the rank slabs of the two-level
/// decomposition, each sub-split into per-thread pieces. Blocks ascend in
/// dim-0 globally, so "reduce in block order" and "reduce in rank order,
/// then intra-rank block order" are the same reduction.
#[derive(Clone, Debug)]
pub struct CellBlocks {
    /// Per-block dim-0 index range, globally ascending (empty ranges
    /// allowed when blocks outnumber cells).
    pub blocks: Vec<Range<usize>>,
    /// Total dim-0 extent.
    pub n0: usize,
    /// Configuration cells per unit of dim-0.
    pub stride0: usize,
}

impl CellBlocks {
    /// Split `n0` dim-0 cells into `ranks` slabs of `blocks_per_rank`
    /// blocks each.
    // dg-analyze: allow(hot_alloc) — construction-time partitioning, runs once per solver setup
    pub fn new(grid: &dg_grid::PhaseGrid, ranks: usize, blocks_per_rank: usize) -> Self {
        assert!(ranks >= 1 && blocks_per_rank >= 1);
        let n0 = grid.conf.cells()[0];
        let mut blocks = Vec::with_capacity(ranks * blocks_per_rank);
        for slab in slab_ranges(n0, ranks) {
            for sub in slab_ranges(slab.len(), blocks_per_rank) {
                blocks.push(slab.start + sub.start..slab.start + sub.end);
            }
        }
        CellBlocks {
            blocks,
            n0,
            stride0: grid.conf.len() / n0,
        }
    }

    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Linear configuration-cell range of one block.
    pub fn conf_range(&self, b: usize) -> Range<usize> {
        let s = &self.blocks[b];
        s.start * self.stride0..s.end * self.stride0
    }
}

/// Kinetic RHS of one species restricted to one dim-0 cell block: the unit
/// of work of the [`Driver`] (a rank is just a block that happens to span
/// its whole slab). Fills `ws.wall` with the block's wall-flux partial sums.
///
/// The sweep order matches the reference one ([`VlasovOp::accumulate_rhs`])
/// restricted to the block: volume,
/// lower-wall faces (first block only), the received face below the block,
/// interior dim-0 faces ascending, the sending face above the block — or
/// the periodic wrap / upper wall for the last block, with the first block
/// applying its received wrap side last, exactly where the reference
/// sweep visits it.
#[allow(clippy::too_many_arguments)]
pub fn block_species_rhs<S: CellStoreMut>(
    op: &VlasovOp,
    grid: &PhaseGrid,
    block: Range<usize>,
    n0: usize,
    stride0: usize,
    qm: f64,
    f: &DgField,
    em: &DgField,
    out: &mut S,
    ws: &mut VlasovWorkspace,
    bcs: &[DimBc],
) {
    let cdim = grid.cdim();
    ws.wall.reset();
    if block.is_empty() {
        return; // more blocks than dim-0 cells: idle block
    }
    let conf_range = block.start * stride0..block.end * stride0;
    let bc0 = bcs[0];

    // Volume everywhere in the block.
    op.volume(qm, f, em, out, ws, conf_range.clone()); // dg-analyze: allow(hot_alloc) — Range<usize> clone is a two-word copy, no heap

    // dim-0 surfaces. Reference order: lower-wall faces first, then faces by
    // ascending lower-cell index; the periodic wrap face (n0−1 → 0) and
    // the upper-wall faces come last.
    let apply_dim0 = |i0_lo: usize,
                      i0_hi: usize,
                      write_lo: bool,
                      write_hi: bool,
                      out: &mut S,
                      ws: &mut VlasovWorkspace| {
        for rest in 0..stride0 {
            let clo = i0_lo * stride0 + rest;
            let chi = i0_hi * stride0 + rest;
            op.surface_config_face(0, f, out, ws, clo, chi, write_lo, write_hi);
        }
    };
    let wraps = bc0.is_periodic() && n0 > 1;
    // The decomposed lower domain edge: the first block owns the wall.
    if block.start == 0 && bc0.lower.is_wall() {
        for rest in 0..stride0 {
            op.surface_config_wall(0, -1, bc0.lower, f, out, ws, rest);
        }
    }
    {
        // One Surface span for the block's whole dim-0 face sweep
        // (per-face spans would cost two clock reads each); the wall
        // calls before/after keep their own `Phase::Ghosts` spans, so
        // phases stay non-overlapping. Hoisting the upper-wall branch out
        // of the scope is order-preserving: it is mutually exclusive with
        // the wrap faces inside.
        let _surface_span = ws.probe.span(Phase::Surface);
        // Shared face below this block (received side), except for the
        // first block whose below-face is the wrap face (periodic
        // topology only), handled last like the reference sweep does.
        if block.start > 0 {
            apply_dim0(block.start - 1, block.start, false, true, out, ws);
        }
        // Interior faces of the block.
        for i0 in block.start..block.end.saturating_sub(1) {
            apply_dim0(i0, i0 + 1, true, true, out, ws);
        }
        // Face above the block (sending side) or, for the last block, the
        // periodic wrap (write_lo); the first block then also receives
        // the wrap. A block spanning all of dim 0 is both, so it writes
        // both sides of the wrap in one evaluation, as the reference does.
        let whole = block.start == 0 && block.end == n0;
        if block.end < n0 {
            apply_dim0(block.end - 1, block.end, true, false, out, ws);
        } else if wraps {
            apply_dim0(n0 - 1, 0, true, whole, out, ws);
        }
        if block.start == 0 && wraps && !whole {
            apply_dim0(n0 - 1, 0, false, true, out, ws);
        }
    }
    // The last block's upper domain edge, when it is a wall rather than
    // the periodic wrap handled above.
    if block.end == n0 && !wraps && bc0.upper.is_wall() {
        for rest in 0..stride0 {
            op.surface_config_wall(0, 1, bc0.upper, f, out, ws, (n0 - 1) * stride0 + rest);
        }
    }

    // Remaining configuration directions stay inside the block (wall faces
    // included: every face of a d ≥ 1 column is block-local).
    for d in 1..cdim {
        op.surface_config(d, f, out, ws, conf_range.clone(), bcs[d]); // dg-analyze: allow(hot_alloc) — Range<usize> clone is a two-word copy, no heap
    }
    // Velocity surfaces are cell-local in configuration space.
    op.surface_velocity(qm, f, em, out, ws, conf_range);
}

/// Shareable base pointer of an output field (each worker derives its own
/// disjoint [`DgFieldSlice`] from it).
#[derive(Clone, Copy)]
struct SendPtr(*mut f64);
// SAFETY: workers write strictly disjoint cell ranges of the field.
unsafe impl Send for SendPtr {}
// SAFETY: shared references only hand out the raw pointer; all writes
// through it target disjoint per-worker cell ranges.
unsafe impl Sync for SendPtr {}

impl SendPtr {
    /// Accessor (rather than field access) so closures capture the
    /// `Sync` wrapper, not the raw pointer field.
    fn get(&self) -> *mut f64 {
        self.0
    }
}

/// The per-block half of the [`Driver`]: the partition, the worker pool
/// (none for one thread) and one persistent workspace per block.
struct BlockSweep {
    blocks: CellBlocks,
    /// `None` with one thread: the blocks then run in order on the calling
    /// thread (spawning a one-worker pool would only add set-up cost).
    pool: Option<ThreadPool>,
    /// One kinetic workspace per block — `Mutex` only to satisfy the
    /// compiler: block `b` is touched by exactly one worker per sweep
    /// (`b % nthreads == worker index`), so every lock is uncontended (and
    /// the std mutex is futex-based: locking never allocates).
    ws: Vec<Mutex<VlasovWorkspace>>,
    /// One LBO scratch per block, built on the first sweep of a system
    /// with collisions enabled.
    lbo_ws: Vec<Mutex<LboScratch>>,
    /// Persistent block-ordered reduction target for the wall ledger.
    total: WallAccum,
    /// Telemetry registry, kept so lazily-built LBO scratch (see
    /// [`Self::ensure_lbo_scratch`]) is instrumented like the rest.
    probe_reg: Option<Arc<Registry>>,
}

impl BlockSweep {
    /// Telemetry slot of block `b`: one slot per pool block (slot 0 is the
    /// calling thread), or slot 0 for every block when the calling thread
    /// sweeps them all — each slot keeps a single writer either way.
    fn slot(&self, b: usize) -> usize {
        if self.pool.is_some() {
            1 + b
        } else {
            0
        }
    }

    // dg-analyze: allow(hot_alloc) — collector handoff is cold (once per run)
    fn instrument(&mut self, reg: &Arc<Registry>) {
        self.probe_reg = Some(Arc::clone(reg));
        for b in 0..self.ws.len() {
            let probe = reg.collector(self.slot(b));
            self.ws[b].get_mut().unwrap().probe = probe;
        }
        for b in 0..self.lbo_ws.len() {
            let probe = reg.collector(self.slot(b));
            self.lbo_ws[b].get_mut().unwrap().instrument(&probe);
        }
    }

    /// Allocate per-block LBO scratch if the system has collisions and we
    /// have none yet (collisions may be enabled after construction; this
    /// runs once, outside the counted hot loop).
    // dg-analyze: allow(hot_alloc) — one-time scratch growth outside the counted hot loop
    fn ensure_lbo_scratch(&mut self, system: &VlasovMaxwell) {
        if !self.lbo_ws.is_empty() {
            return;
        }
        if let Some(lbo) = system.collisions().iter().flatten().next() {
            self.lbo_ws = (0..self.blocks.len())
                .map(|_| Mutex::new(lbo.make_scratch()))
                .collect();
            if let Some(reg) = self.probe_reg.clone() {
                self.instrument(&reg);
            }
        }
    }

    /// Kinetic RHS of every species over the cell blocks, plus the
    /// block-ordered wall-ledger reduction. `out`'s species fields must be
    /// zeroed by the caller (the RHS accumulates).
    fn species_rhs(
        &mut self,
        system: &mut VlasovMaxwell,
        state: &SystemState,
        out: &mut SystemState,
    ) {
        self.ensure_lbo_scratch(system);
        let nblocks = self.blocks.len();
        let (n0, stride0) = (self.blocks.n0, self.blocks.stride0);
        let nv = system.grid.vel.len();
        for s in 0..system.species.len() {
            {
                let sys: &VlasovMaxwell = system;
                let qm = sys.species[s].qm();
                let bcs = sys.conf_bcs(s);
                let f = &state.species_f[s];
                let em = &state.em;
                let lbo = sys.collisions()[s].as_ref();
                let op = &sys.vlasov;
                let grid = &sys.grid;
                let cells = &self.blocks;
                let out_f = &mut out.species_f[s];
                match &self.pool {
                    None => {
                        for b in 0..nblocks {
                            let bws = self.ws[b].get_mut().unwrap();
                            let conf_range = cells.conf_range(b);
                            let block = cells.blocks[b].start..cells.blocks[b].end;
                            block_species_rhs(
                                op, grid, block, n0, stride0, qm, f, em, out_f, bws, bcs,
                            );
                            if let Some(lbo) = lbo {
                                let lws = self.lbo_ws[b].get_mut().unwrap();
                                lbo.accumulate_rhs_range(f, out_f, lws, conf_range);
                            }
                        }
                    }
                    Some(pool) => {
                        let np = out_f.ncoeff();
                        let base = SendPtr(out_f.as_mut_slice().as_mut_ptr());
                        let ws = &self.ws;
                        let lbo_ws = &self.lbo_ws;
                        pool.broadcast(|ctx| {
                            let me = ctx.index();
                            let nthreads = ctx.num_threads();
                            for b in (me..nblocks).step_by(nthreads) {
                                let block = cells.blocks[b].start..cells.blocks[b].end;
                                let conf_range = cells.conf_range(b);
                                let first = conf_range.start * nv;
                                let ncells = conf_range.len() * nv;
                                // SAFETY: blocks are disjoint cell ranges of
                                // the output field and each block is visited
                                // by exactly one worker, so the views never
                                // overlap.
                                let mut view = unsafe {
                                    DgFieldSlice::from_raw(
                                        base.get().add(first * np),
                                        first,
                                        ncells,
                                        np,
                                    )
                                };
                                let mut bws = ws[b].lock().unwrap();
                                block_species_rhs(
                                    op, grid, block, n0, stride0, qm, f, em, &mut view, &mut bws,
                                    bcs,
                                );
                                if let Some(lbo) = lbo {
                                    let mut lws = lbo_ws[b].lock().unwrap();
                                    lbo.accumulate_rhs_range(f, &mut view, &mut lws, conf_range);
                                }
                            }
                        });
                    }
                }
            }
            // Deterministic ledger reduction: ascending block order =
            // lower-walls → interior → upper-walls. (Scoped span: ends
            // before record_wall_rates, which times itself.)
            {
                let _ledger_span = system.probe.span(Phase::Ledger);
                self.total.reset();
                for bws in &mut self.ws {
                    self.total.add(&bws.get_mut().unwrap().wall);
                }
            }
            system.record_wall_rates(s, &self.total);
        }
    }

    /// Full coupled RHS at `state` into `out` (zeroed here): the block
    /// species sweep, then the field coupling.
    fn rhs(&mut self, system: &mut VlasovMaxwell, state: &SystemState, out: &mut SystemState) {
        system.probe.count(Counter::RhsEvals, 1);
        out.fill(0.0);
        self.species_rhs(system, state, out);
        system.field_rhs(state, out);
    }
}

/// The execution driver [`App`](crate::app::App) owns: the
/// [`VlasovMaxwell`] system, its `ranks × threads` cell-block partition
/// with one workspace per block, and the SSP-RK3 stage buffers.
///
/// `ranks` are units of decomposition (the simulated MPI slabs of the
/// paper's Fig. 3), `threads` units of execution; every pair produces the
/// same bits as every other, so both are pure execution policy.
pub struct Driver {
    system: VlasovMaxwell,
    sweep: BlockSweep,
    stage_buf: SystemState,
    rhs_buf: SystemState,
}

impl Driver {
    /// Wrap `system` in a driver over `ranks` slabs of `threads` blocks
    /// each, swept by `threads` workers. Zero ranks or threads is a build
    /// error.
    // dg-analyze: allow(hot_alloc) — constructor: pool, per-block workspaces and stage buffers are built once
    pub fn new(system: VlasovMaxwell, ranks: usize, threads: usize) -> Result<Self, Error> {
        if ranks == 0 || threads == 0 {
            return Err(Error::Build(format!(
                "the driver needs ranks ≥ 1 and threads ≥ 1, got ranks={ranks} threads={threads}"
            )));
        }
        let blocks = CellBlocks::new(&system.grid, ranks, threads);
        let pool = if threads > 1 {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .map_err(|e| Error::Build(format!("worker pool: {e}")))?;
            Some(pool)
        } else {
            None
        };
        let ws = (0..blocks.len())
            .map(|_| Mutex::new(VlasovWorkspace::for_kernels(&system.kernels)))
            .collect();
        let mut sweep = BlockSweep {
            blocks,
            pool,
            ws,
            lbo_ws: Vec::new(),
            total: WallAccum::for_cdim(system.grid.cdim()),
            probe_reg: None,
        };
        sweep.ensure_lbo_scratch(&system);
        Ok(Driver {
            stage_buf: system.new_state(),
            rhs_buf: system.new_state(),
            system,
            sweep,
        })
    }

    /// The underlying system, for diagnostics and moments.
    pub fn system(&self) -> &VlasovMaxwell {
        &self.system
    }

    /// Mutable system access (dispatch forcing, collision swaps).
    pub fn system_mut(&mut self) -> &mut VlasovMaxwell {
        &mut self.system
    }

    /// Dissolve the driver and hand the system back.
    pub fn into_system(self) -> VlasovMaxwell {
        self.system
    }

    /// Telemetry slots the driver writes: slot 0 is the calling thread,
    /// plus one per block when a worker pool sweeps them. Sizes the
    /// [`Registry`] handed to [`Driver::instrument`].
    pub fn telemetry_slots(&self) -> usize {
        if self.sweep.pool.is_some() {
            1 + self.sweep.blocks.len()
        } else {
            1
        }
    }

    /// Attach a telemetry registry, pointing the system and every block
    /// workspace at its slot. Telemetry is observational only —
    /// instrumented and uninstrumented runs produce bit-identical
    /// trajectories (`tests/telemetry.rs`).
    pub fn instrument(&mut self, reg: &Arc<Registry>) {
        self.system.instrument(&reg.collector(0));
        self.sweep.instrument(reg);
    }

    /// CFL-stable `dt` suggestion for `state` (the decomposition does not
    /// change the spectrum).
    pub fn suggest_dt(&self, state: &SystemState, cfl: f64) -> f64 {
        cfl::suggest_dt(&self.system, state, cfl)
    }

    /// Evaluate the full coupled RHS at `state` into `out` (zeroed here).
    pub fn rhs(&mut self, state: &SystemState, out: &mut SystemState) {
        self.sweep.rhs(&mut self.system, state, out);
    }

    /// Advance `state` by one SSP-RK3 step of size `dt`: three coupled RHS
    /// evaluations, each followed by folding its wall rates into the
    /// ledger with the stage's [`STAGE_WEIGHTS`] entry.
    pub fn step(&mut self, state: &mut SystemState, dt: f64) {
        let mut stage = 0usize;
        ssp_rk3(state, &mut self.stage_buf, &mut self.rhs_buf, dt, |s, o| {
            self.sweep.rhs(&mut self.system, s, o);
            self.system.integrate_wall_ledger(STAGE_WEIGHTS[stage] * dt);
            stage += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{App, AppBuilder, FieldSpec, SpeciesSpec};
    use crate::species::{maxwellian, Species};
    use crate::vlasov::{FluxKind, VlasovOp};
    use dg_basis::BasisKind;
    use dg_grid::{Bc, CartGrid, PhaseGrid};
    use dg_kernels::{kernels_for, KernelDispatch, PhaseLayout};

    #[test]
    fn blocks_tile_the_grid_in_order() {
        let grid = PhaseGrid::new(
            CartGrid::new(&[0.0], &[1.0], &[7]),
            CartGrid::new(&[-1.0], &[1.0], &[4]),
            vec![Bc::Periodic],
        );
        let cb = CellBlocks::new(&grid, 3, 2);
        assert_eq!(cb.len(), 6);
        let mut next = 0;
        for b in &cb.blocks {
            assert_eq!(b.start, next, "blocks must be contiguous and ascending");
            next = b.end;
        }
        assert_eq!(next, 7);
        // More blocks than cells: empties, still a tiling.
        let cb = CellBlocks::new(&grid, 5, 3);
        assert_eq!(cb.len(), 15);
        assert_eq!(cb.blocks.iter().map(|b| b.len()).sum::<usize>(), 7);
    }

    #[test]
    fn ranges_partition_phase_space() {
        // 2X: each dim-0 index spans stride0 = 3 configuration cells, and
        // the blocks' configuration ranges tile the whole grid in order.
        let grid = PhaseGrid::new(
            CartGrid::new(&[0.0, 0.0], &[1.0, 1.0], &[8, 3]),
            CartGrid::new(&[-1.0, -1.0], &[1.0, 1.0], &[4, 2]),
            vec![Bc::Periodic, Bc::Periodic],
        );
        let cb = CellBlocks::new(&grid, 3, 1);
        assert_eq!(cb.stride0, 3);
        let mut next = 0;
        for b in 0..cb.len() {
            let r = cb.conf_range(b);
            assert_eq!(r.start, next, "configuration ranges must be contiguous");
            next = r.end;
        }
        assert_eq!(next * grid.vel.len(), grid.len());
    }

    #[test]
    fn block_sweep_matches_serial_sweep_bitwise() {
        // Operator-level check against the independent reference sweep
        // `VlasovOp::accumulate_rhs`: the per-block sweeps of any block
        // partition sum to the reference, bit for bit.
        let kernels = kernels_for(BasisKind::Serendipity, PhaseLayout::new(1, 1), 2);
        let grid = PhaseGrid::new(
            CartGrid::new(&[0.0], &[1.0], &[5]),
            CartGrid::new(&[-6.0], &[6.0], &[6]),
            vec![Bc::Periodic],
        );
        let op = VlasovOp::with_dispatch(
            std::sync::Arc::clone(&kernels),
            grid.clone(),
            FluxKind::Upwind,
            KernelDispatch::Generated,
        );
        let mut sp = Species::new("elc", -1.0, 1.0, &grid, kernels.np());
        sp.project_initial(&kernels, &grid, 4, &mut |x, v| {
            maxwellian(1.0 + 0.1 * (2.0 * x[0]).cos(), &[0.4], 0.8, v)
        });
        let mut em = DgField::zeros(grid.conf.len(), dg_maxwell::NCOMP * kernels.nc());
        for c in 0..grid.conf.len() {
            for (i, v) in em.cell_mut(c).iter_mut().enumerate() {
                *v = ((c * 11 + i) as f64 * 0.37).sin() * 0.3;
            }
        }

        let mut ws = VlasovWorkspace::for_kernels(&kernels);
        let bcs = grid.conf_bc.clone();

        let mut reference = DgField::zeros(grid.len(), kernels.np());
        op.accumulate_rhs(-1.0, &sp.f, &em, &mut reference, &mut ws);

        for parts in [1usize, 2, 3, 5, 7] {
            let mut blocked = DgField::zeros(grid.len(), kernels.np());
            for blk in slab_ranges(5, parts) {
                block_species_rhs(
                    &op,
                    &grid,
                    blk,
                    5,
                    1,
                    -1.0,
                    &sp.f,
                    &em,
                    &mut blocked,
                    &mut ws,
                    &bcs,
                );
            }
            assert_eq!(
                reference.as_slice(),
                blocked.as_slice(),
                "{parts}-way block partition diverged from the reference sweep"
            );
        }
    }

    /// 2X2V p=1 box, periodic in dim 0 and walled in dim 1 (reflecting
    /// below, absorbing above), with a scrambled EM field.
    fn walled_2x2v() -> (VlasovMaxwell, SystemState) {
        let (sys, mut state) = AppBuilder::new()
            .conf_grid(&[0.0, 0.0], &[2.0, 1.0], &[4, 3])
            .poly_order(1)
            .basis(BasisKind::Serendipity)
            .conf_bc(vec![
                DimBc::from(Bc::Periodic),
                DimBc::new(Bc::Reflect, Bc::Absorb),
            ])
            .species(
                SpeciesSpec::new("elc", -1.0, 1.0, &[-4.0, -4.0], &[4.0, 4.0], &[4, 4]).initial(
                    |x, v| {
                        maxwellian(
                            1.0 + 0.1 * (3.0 * x[0]).cos() + 0.2 * x[1],
                            &[0.3, -0.4],
                            0.9,
                            v,
                        )
                    },
                ),
            )
            .field(FieldSpec::new(1.0))
            .build()
            .unwrap()
            .into_parts();
        for c in 0..state.em.ncells() {
            for (i, v) in state.em.cell_mut(c).iter_mut().enumerate() {
                *v = ((c * 7 + i) as f64 * 0.29).sin() * 0.4;
            }
        }
        (sys, state)
    }

    #[test]
    fn driver_sweep_matches_reference_on_2x2v_with_walls() {
        // stride0 = 3 > 1 and walls on dim 1: the d ≥ 1 wall faces stay
        // inside each block, at every rank/thread decomposition.
        let (sys, state) = walled_2x2v();
        assert_eq!(CellBlocks::new(&sys.grid, 1, 1).stride0, 3);
        let mut reference = DgField::zeros(sys.grid.len(), sys.kernels.np());
        let mut ws = VlasovWorkspace::for_kernels(&sys.kernels);
        let qm = sys.species[0].qm();
        sys.vlasov
            .accumulate_rhs(qm, &state.species_f[0], &state.em, &mut reference, &mut ws);
        assert!(reference.max_abs() > 0.0);

        for (ranks, threads) in [(1usize, 1usize), (1, 2), (2, 2), (3, 1)] {
            let (sys, _) = walled_2x2v();
            let mut driver = Driver::new(sys, ranks, threads).unwrap();
            let mut out = driver.system().new_state();
            driver.rhs(&state, &mut out);
            assert_eq!(
                reference.as_slice(),
                out.species_f[0].as_slice(),
                "ranks={ranks} threads={threads}: block sweep diverged from the reference"
            );
        }
    }

    fn make_app(nx: usize) -> App {
        let kx = 0.5;
        AppBuilder::new()
            .conf_grid(&[0.0], &[2.0 * std::f64::consts::PI / kx], &[nx])
            .poly_order(1)
            .basis(BasisKind::Serendipity)
            .species(
                SpeciesSpec::new("elc", -1.0, 1.0, &[-6.0, -6.0], &[6.0, 6.0], &[6, 6]).initial(
                    move |x, v| maxwellian(1.0 + 0.08 * (kx * x[0]).cos(), &[0.3, -0.2], 1.0, v),
                ),
            )
            .field(FieldSpec::new(2.0).with_poisson_init().cleaning(1.0, 1.0))
            .build()
            .unwrap()
    }

    #[test]
    fn parallel_rhs_is_bit_identical_to_serial() {
        // Reference: the operator-level sweep per species plus the field
        // coupling, evaluated without the driver.
        let (mut ref_sys, state) = make_app(7).into_parts();
        let mut reference = ref_sys.new_state();
        let mut ws = VlasovWorkspace::for_kernels(&ref_sys.kernels);
        for s in 0..ref_sys.species.len() {
            ref_sys.vlasov.accumulate_rhs(
                ref_sys.species[s].qm(),
                &state.species_f[s],
                &state.em,
                &mut reference.species_f[s],
                &mut ws,
            );
        }
        ref_sys.field_rhs(&state, &mut reference);

        for ranks in [1usize, 2, 3, 5] {
            let (sys, _) = make_app(7).into_parts();
            let mut driver = Driver::new(sys, ranks, 2).unwrap();
            let mut out = driver.system().new_state();
            driver.rhs(&state, &mut out);
            assert_eq!(
                reference.species_f[0].as_slice(),
                out.species_f[0].as_slice(),
                "ranks={ranks}: species RHS must be bit-identical"
            );
            assert_eq!(
                reference.em.as_slice(),
                out.em.as_slice(),
                "ranks={ranks}: EM RHS must be bit-identical"
            );
        }
    }

    #[test]
    fn parallel_steps_track_serial_exactly() {
        let mut app = make_app(6);
        app.set_fixed_dt(5e-4);
        let (sys, mut state) = make_app(6).into_parts();
        let mut driver = Driver::new(sys, 3, 2).unwrap();
        for _ in 0..5 {
            app.step().unwrap();
            driver.step(&mut state, 5e-4);
        }
        assert_eq!(
            app.state().species_f[0].as_slice(),
            state.species_f[0].as_slice()
        );
        assert_eq!(app.state().em.as_slice(), state.em.as_slice());
    }

    #[test]
    fn more_ranks_than_slabs_degenerates_gracefully() {
        let (sys, state) = make_app(3).into_parts();
        let mut driver = Driver::new(sys, 8, 2).unwrap();
        let mut out = driver.system().new_state();
        driver.rhs(&state, &mut out); // empty slabs must be harmless
        assert!(out.species_f[0].max_abs().is_finite());
    }

    #[test]
    fn driver_validates_and_steps() {
        for (ranks, threads) in [(0usize, 2usize), (2, 0)] {
            let (sys, _) = make_app(4).into_parts();
            assert!(matches!(
                Driver::new(sys, ranks, threads),
                Err(Error::Build(_))
            ));
        }

        // One driver step matches the serial App step.
        let mut serial = make_app(5);
        serial.set_fixed_dt(5e-4);
        serial.step().unwrap();

        let (sys, mut state) = make_app(5).into_parts();
        let mut driver = Driver::new(sys, 2, 2).unwrap();
        driver.step(&mut state, 5e-4);
        assert_eq!(
            serial.state().species_f[0].as_slice(),
            state.species_f[0].as_slice()
        );
    }
}
