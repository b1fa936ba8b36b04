//! # dg-parallel — the Fig. 3 scaling harness
//!
//! The paper's §IV parallelization has two layers:
//!
//! 1. **configuration-space domain decomposition across MPI ranks** — each
//!    rank owns a slab of configuration cells (with its entire velocity
//!    grid), and only one layer of configuration-space ghost cells is
//!    communicated per step;
//! 2. **velocity-space work sharing inside a node via MPI-3 shared
//!    memory** — no ghost layers and no all-reduce of moments within a
//!    node, which the paper credits with 2–3× memory savings.
//!
//! Both layers live in one place: `dg_core::blocks::Driver` cuts
//! configuration space into `ranks` dim-0 slabs, each split once per
//! worker thread, and sweeps the blocks on a persistent pool. Slab faces
//! play the role of halo exchange, and because each block writes only its
//! own cells, every (ranks, threads) pair is **bit-identical** to every
//! other. This crate is the harness that times that driver over the
//! paper's problem family and accounts the halo data volume a genuinely
//! distributed run would exchange ([`scaling::halo_bytes`]), so Fig. 3's
//! communication/computation ratios can be reported.
//!
//! Substitution note (DESIGN.md): the container exposes a single CPU, so
//! wall-clock *speedups* cannot manifest here; the harness measures and
//! prints the same per-rank series the paper plots, and produces genuine
//! scaling curves when run on a multicore host.

pub mod scaling;
