//! Strip-mined vectorized tape execution.
//!
//! The paper's CPU backend emits explicitly vectorized kernels: "the
//! innermost loop is processed in chunks of the vector width, with a scalar
//! remainder loop" (§3.5). This module is the interpreter-side equivalent:
//! instead of dispatching the tape once per cell, it walks x-strips of
//! [`STRIP_WIDTH`] cells and executes each instruction over all lanes of
//! the strip before moving to the next instruction — amortizing dispatch
//! cost W-fold and turning unit-stride loads/stores into contiguous slice
//! copies.
//!
//! Layout: one flat SoA scratch buffer `regs[W * n_instrs]`, the value of
//! instruction `i` in lane `l` living at `regs[i*W + l]`. Hoisted level
//! sections (loop-invariant scalar arithmetic) are evaluated once at the
//! right loop depth and broadcast into all lanes, so per-cell instructions
//! never need to know whether an argument was hoisted. The remainder
//! (`ext_x % W` cells) runs through a scalar tear-down loop over lane 0.
//! Philox lanes are generated per strip from the stateless per-cell
//! counters, so results are bitwise identical to serial execution.
//!
//! Threads are not this module's business: [`Cursor::run_strips`] sweeps
//! the region it is given on the calling thread, and [`crate::Launch`] hands
//! each thread of a launch one slab of the outer loop.

use crate::exec::{Cursor, RawSlice, Step};
use pf_ir::{Arith, TapeOp};

/// Strip width W: f64 lanes of the widest supported ISA (AVX-512).
pub const STRIP_WIDTH: usize = crate::simd::SimdIsa::Avx512.lanes();

const W: usize = STRIP_WIDTH;

/// The strip engine's half of the loop driver.
impl Cursor<'_> {
    /// The strip engine: the tape over `self.region`. Caller guarantees
    /// `tape.loop_order[2] == 0` (x innermost) and, when other threads sweep
    /// other slabs, centre stores along `loop_order[0]`. Strips are phased
    /// from `region.lo[0]`; since every instruction is evaluated per-cell
    /// from absolute coordinates, strip phasing never changes values, so
    /// region launches stay bitwise identical to full sweeps.
    pub(crate) fn run_strips(&self, read_data: &[&[f64]], raw: &[RawSlice]) {
        let mut regs = vec![0.0f64; self.tape.instrs.len() * W];
        // Sweep-invariant section, once per region.
        self.exec_hoisted(&mut regs, read_data, 0, self.plan.sec[0], [0; 3]);
        let outer = self.tape.loop_order[0];
        for o in self.region.lo[outer]..self.region.hi[outer] {
            self.run_outer_strips(&mut regs, read_data, raw, o);
        }
    }

    /// One outer-loop iteration: hoisted sections at their depths, then the
    /// inner x loop in strips of W plus a scalar remainder.
    fn run_outer_strips(&self, regs: &mut [f64], read_data: &[&[f64]], raw: &[RawSlice], o: usize) {
        let order = self.tape.loop_order;
        let [s0, s1, s2, s3] = self.plan.sec;
        let mut idx3 = [0usize; 3];
        idx3[order[0]] = o;
        self.exec_hoisted(regs, read_data, s0, s1, idx3);
        let x_lo = self.region.lo[0];
        let x_hi = self.region.hi[0];
        for m in self.region.lo[order[1]]..self.region.hi[order[1]] {
            idx3[order[1]] = m;
            self.exec_hoisted(regs, read_data, s1, s2, idx3);
            let mut x = x_lo;
            while x + W <= x_hi {
                idx3[0] = x;
                self.exec_strip(regs, read_data, raw, s2, s3, idx3);
                x += W;
            }
            // Scalar tear-down loop for the remainder strip.
            while x < x_hi {
                idx3[0] = x;
                self.exec_teardown(regs, read_data, raw, s2, s3, idx3);
                x += 1;
            }
        }
    }

    /// Hoisted (loop-invariant) section: evaluate scalar, broadcast into
    /// all W lanes so per-cell instructions can read any argument lane-wise.
    fn exec_hoisted(
        &self,
        regs: &mut [f64],
        read_data: &[&[f64]],
        from: usize,
        to: usize,
        idx3: [usize; 3],
    ) {
        for i in from..to {
            let (v, store) = self.eval::<W>(regs, read_data, i, idx3);
            debug_assert!(
                store.is_none(),
                "stores are per-cell (level 3) by construction"
            );
            regs[i * W..(i + 1) * W].fill(v);
        }
    }

    /// Scalar remainder loop over lane 0 (hoisted arguments are broadcast,
    /// so lane 0 always holds their value).
    fn exec_teardown(
        &self,
        regs: &mut [f64],
        read_data: &[&[f64]],
        raw: &[RawSlice],
        from: usize,
        to: usize,
        idx3: [usize; 3],
    ) {
        for i in from..to {
            let (v, store) = self.eval::<W>(regs, read_data, i, idx3);
            if let Some((a, idx)) = store {
                // SAFETY: index in bounds by plan construction; remainder
                // cells belong to exactly one slab (the same centre-store
                // argument as the strip body's).
                unsafe { raw[a].write(idx, v) };
            }
            regs[i * W] = v;
        }
    }

    /// A position-dependent op over one strip: lanes `0..lanes` are the
    /// scalar evaluator's values at x + l (Philox is stateless per cell, so
    /// strip noise is bitwise the serial noise), the rest repeat lane 0.
    /// Kept out of line: per-cell tapes hold a handful of these ops, and
    /// inlining the evaluator into `exec_strip` cost the arithmetic
    /// dispatch 7 % on the P1 kernels.
    #[inline(never)]
    fn strip_leaf(
        &self,
        dst: &mut [f64; W],
        prev: &[f64],
        read_data: &[&[f64]],
        i: usize,
        idx3: [usize; 3],
        lanes: usize,
    ) {
        for (l, d) in dst.iter_mut().enumerate().take(lanes) {
            let at = [idx3[0] + l, idx3[1], idx3[2]];
            *d = self.eval::<W>(prev, read_data, i, at).0;
        }
        let first = dst[0];
        dst[lanes..].fill(first);
    }

    /// The vector body: one full strip of W cells at `idx3` (x = idx3[0] +
    /// lane). Each instruction is evaluated across all lanes before the
    /// next dispatches; unit-stride loads/stores are slice copies.
    fn exec_strip(
        &self,
        regs: &mut [f64],
        read_data: &[&[f64]],
        raw: &[RawSlice],
        from: usize,
        to: usize,
        idx3: [usize; 3],
    ) {
        let approx = self.tape.approx;
        for i in from..to {
            // SSA: every argument of instruction i is defined before i, so
            // splitting at i*W gives disjoint arg (shared) / dst (mut)
            // views into the flat SoA buffer.
            let (prev, rest) = regs.split_at_mut(i * W);
            let dst: &mut [f64; W] = (&mut rest[..W]).try_into().expect("W lanes");
            let arg = |a: pf_ir::VReg| -> &[f64; W] {
                prev[a.0 as usize * W..][..W].try_into().expect("W lanes")
            };
            match self.plan.steps[i] {
                Step::Load { arr, delta } => {
                    let a = arr as usize;
                    let s = self.plan.read_strides[a];
                    let idx = Self::index(self.plan.read_base[a], s, idx3, delta);
                    if s[0] == 1 {
                        dst.copy_from_slice(&read_data[a][idx..idx + W]);
                    } else {
                        for (l, d) in dst.iter_mut().enumerate() {
                            *d = read_data[a][idx + l * s[0] as usize];
                        }
                    }
                }
                Step::Store { arr, delta, val } => {
                    let a = arr as usize;
                    let s = self.plan.write_strides[a];
                    let idx = Self::index(self.plan.write_base[a], s, idx3, delta);
                    let v = arg(pf_ir::VReg(val));
                    // SAFETY: distinct slabs write disjoint outer indices
                    // (centre stores along the outer loop, checked at
                    // launch); indices in bounds by plan construction.
                    if s[0] == 1 {
                        unsafe { raw[a].write_strip(idx, v) };
                    } else {
                        for (l, &x) in v.iter().enumerate() {
                            unsafe { raw[a].write(idx + l * s[0] as usize, x) };
                        }
                    }
                    dst.copy_from_slice(v);
                }
                Step::Op(op) => match op {
                    TapeOp::Const(c) => dst.fill(c.0),
                    TapeOp::Fence => dst.fill(0.0),
                    TapeOp::CmpSelect { op, l, r, t, f } => {
                        let (lv, rv, tv, fv) = (arg(l), arg(r), arg(t), arg(f));
                        for i in 0..W {
                            dst[i] = if op.eval(lv[i], rv[i]) { tv[i] } else { fv[i] };
                        }
                    }
                    // Only x varies along the strip.
                    TapeOp::Param(_)
                    | TapeOp::Time
                    | TapeOp::Coord(_)
                    | TapeOp::CellIdx(_)
                    | TapeOp::Rand(_) => {
                        let lanes = match op {
                            TapeOp::Coord(0) | TapeOp::CellIdx(0) | TapeOp::Rand(_) => W,
                            _ => 1,
                        };
                        self.strip_leaf(dst, prev, read_data, i, idx3, lanes);
                    }
                    TapeOp::Load { .. } | TapeOp::Store { .. } => {
                        unreachable!("resolved in plan")
                    }
                    // One dispatch per instruction per strip: the lane loop
                    // of each arithmetic op comes from the pf-ir table.
                    _ => match op.arith().expect("every other op is arithmetic") {
                        Arith::Un(o, a) => o.eval_lanes(dst, arg(a), approx),
                        Arith::Bin(o, a, b) => o.eval_lanes(dst, arg(a), arg(b), approx),
                    },
                },
            }
        }
    }
}
