//! `pf-backend` — kernel backends (§3.5 of the paper).
//!
//! Two consumers of the optimized kernel tape, both reading an arithmetic
//! op through the one table in `pf_ir` (`UnOp`/`BinOp`):
//!
//! * [`Launch`] — the executor: a tape bound once to real field arrays and
//!   launched many times ([`run_kernel`] = bind, run once), interpreted
//!   serially, or strip-mined over x-strips of [`STRIP_WIDTH`] cells (the
//!   explicitly vectorized kernels of §3.5) — or run as compiled code
//!   ([`ExecMode::Native`]). An engine sweeps one [`IterRegion`] on the
//!   calling thread; `Launch` cuts a launch's region into per-thread slabs
//!   (the OpenMP analogue). This is what simulations and benchmarks in this
//!   reproduction actually run.
//! * one loop-nest lowering ([`lower`]) with four targets: [`emit_rust`]
//!   (scalar Rust, what [`native`] compiles with `rustc`, loads with
//!   `dlopen` and dispatches through a typed C ABI, bitwise identical to
//!   the interpreters), [`emit_c`] (C/OpenMP, LICM-hoisted sections at
//!   their loop depths), [`emit_cuda`] (selectable thread-to-cell mappings,
//!   `__threadfence()` scheduling fences, approximate-math intrinsics
//!   `__fdividef`/`__frsqrt_rn`) and [`emit_c_simd`] (strip loop in
//!   AVX-512/AVX2/SSE intrinsics plus a scalar tear-down loop).

mod emit;
mod exec;
mod lower;
pub mod native;
mod simd;
mod store;
mod vector;

pub use emit::{emit_c, emit_cuda, ThreadMapping};
pub use exec::{
    extended_range, run_kernel, run_kernel_region, time_sweeps, time_tapes, with_workers,
    ExecError, ExecMode, Launch, RunCtx,
};
pub use native::{
    clear_memory_cache, emit_rust, native_available, native_cache_dir, source_fingerprint,
};
pub use pf_grid::IterRegion;
pub use simd::{emit_c_simd, SimdIsa};
pub use store::FieldStore;
pub use vector::STRIP_WIDTH;
