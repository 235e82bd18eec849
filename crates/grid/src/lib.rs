//! `pf-grid` — the distributed-memory runtime (the waLBerla substitute,
//! §4 of the paper).
//!
//! Block-structured domain partitioning with static load balancing,
//! a thread-backed message-passing layer (tagged async sends, tag-matched
//! receives, barrier, all-reduce) standing in for MPI, and the phased
//! ghost-layer exchange whose six face messages also fill the edge/corner
//! ghosts the D3C19 µ-kernel stencil needs. Communication options mirror
//! Table 2 (overlap, GPUDirect-style device packing); their *timing* impact
//! is priced by `pf-cluster`, their functional behaviour is identical.

#![forbid(unsafe_code)]

pub mod comm;
pub mod decompose;
pub mod exchange;
pub mod region;

pub use comm::{
    run_ranks, run_ranks_with_faults, with_silenced_dead_rank_panics, Comm, CommStats, FaultPlan,
    Kill, DEAD_RANK_MARKER,
};
pub use decompose::{BlockInfo, Decomposition, Hierarchy, GHOST_LAYERS};
pub use exchange::{
    begin_exchange_batched, exchange_halo_batched, exchange_shape, finish_exchange_batched,
    first_deferred_dim, halo_bytes, pack_face, unpack_face, BatchHandle, CommOptions, DimPhase,
};
pub use region::{split_frontier, IterRegion};
