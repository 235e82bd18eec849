//! `pf-fields` — grid-resident field storage for generated kernels.
//!
//! Provides the paper's array model (§3.4/§3.5): multi-component fields
//! with ghost layers, `fzyx`/`zyxf` layouts, SIMD-width row padding, cheap
//! `src ⇄ dst` swaps, single-block boundary handling, and the staggered
//! (face-centred) temporaries used by the split kernel variants.
//!
//! Kernels compiled by `pf-backend` address these arrays through the
//! `strides()`/`index()` contract: a relative access `(c, dx, dy, dz)` of a
//! field maps to `base + c·sc + dx·sx + dy·sy + dz·sz`.

#![forbid(unsafe_code)]

mod array;
mod staggered;

pub use array::{Box3, FieldArray, Layout, Slab, SIMD_F64_LANES};
pub use staggered::StaggeredField;
