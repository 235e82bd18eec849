//! `pf-ir` — the intermediate representation layer of the pipeline (§3.4 of
//! the paper) plus the GPU register-pressure transformations (§3.5).
//!
//! Stencil kernels are lowered onto a flat SSA **tape** (one straight-line
//! register program per cell). Passes provided:
//!
//! * lowering with value numbering, single-division products, sqrt/rsqrt
//!   ops, integer-power multiplication chains;
//! * loop-invariant code motion with automatic loop-order selection
//!   (the analytic-temperature optimization);
//! * dead code elimination;
//! * Kessler-style beam-search scheduling for minimal register pressure;
//! * rematerialization of cheap common subexpressions;
//! * scheduling fences and a model of downstream-compiler load hoisting;
//! * a reference interpreter (the semantic ground truth for the fast
//!   executors in `pf-backend`).

#![forbid(unsafe_code)]

pub mod interp;
pub mod levels;
pub mod lower;
pub mod pipeline;
pub mod schedule;
pub mod tape;
pub mod verify;

pub use interp::{interp_cell, interp_expr_context, MapEnv, TapeEnv, TapeResult};
pub use levels::{apply_licm, apply_loop_order, compute_levels, level_histogram};
pub use lower::{lower_expr, lower_kernel};
pub use pipeline::{generate, optimize_stencil, GenOptions};
pub use schedule::{
    insert_fences, liveness, rematerialize, schedule_min_live, simulate_compiler_order, Liveness,
};
pub use tape::{ApproxOptions, Arith, BinOp, Tape, TapeBuilder, TapeOp, UnOp, VReg, CF};
pub use verify::{
    run_verifier, set_verifier, set_verify_enabled, verify_enabled, TapeVerifier, VerifyStage,
};
