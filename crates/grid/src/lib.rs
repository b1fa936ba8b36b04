//! # dg-grid — structured grids and DG coefficient storage
//!
//! The paper's simulations run on structured, Cartesian phase-space grids
//! with three logical grids in play (§IV): the configuration grid (fields),
//! the velocity grid, and their product, the phase grid (distribution
//! functions). This crate provides those grids, the flat coefficient
//! storage for DG expansions, and the indexing conventions shared by the
//! solvers:
//!
//! * cells are linearized row-major with dimension 0 slowest;
//! * phase cells are **configuration-major**: `idx = conf_lin · Nv + vel_lin`,
//!   so one configuration cell's whole velocity block is contiguous —
//!   moments reduce over contiguous memory, and the cell-block driver of
//!   `dg-core` slices contiguous ranges (the paper's MPI-3 shared-memory
//!   layer without ghost layers in velocity space);
//! * no ghost cells are allocated: neighbours resolve through
//!   [`boundary::DimBc`]-aware index wrapping (periodic), and non-periodic
//!   boundary faces synthesize their ghost *state* on the fly into solver
//!   workspace scratch (copy/absorb/reflect walls) — the paper's
//!   observation that shared memory removes intra-node ghost-layer memory
//!   (§IV) extends to bounded domains.

pub mod boundary;
pub mod field;
pub mod grid;
pub mod layout;
pub mod slab;

pub use boundary::{Bc, DimBc};
pub use field::{CellStoreMut, DgField, DgFieldSlice};
pub use grid::CartGrid;
pub use layout::PhaseGrid;
