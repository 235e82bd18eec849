//! The one tape → source lowering (§3.5).
//!
//! "In the final step of the code generation pipeline, our intermediate
//! representation is transformed into C or CUDA code." [`lower_nest`] is
//! that step's skeleton, written once: section 0 → outer loop → section 1 →
//! mid loop → section 2 → innermost loop → section 3, the sections being
//! [`Tape::level_sections`] (LICM) and the innermost loop either scalar or
//! a strip loop followed by a scalar tear-down loop ("unrolling the loop by
//! the vector length and generating a tear-down loop"). What a piece looks
//! like in the output language is the [`Target`]'s business: scalar Rust
//! ([`crate::emit_rust`]), C, CUDA and C intrinsics are four targets.

use pf_ir::interp::StoreKey;
use pf_ir::{Arith, BinOp, Tape, TapeOp, UnOp, VReg};
use pf_symbolic::CmpOp;

/// Which innermost loop a target is asked to open.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Inner {
    /// Every cell of the row.
    Scalar,
    /// Whole strips of the vector width.
    Strip,
    /// The cells the strip loop left over; continues its index.
    TearDown,
}

/// The spellings of one output language. Statements come back as whole
/// lines (indented for `depth` open loops, newline-terminated), right-hand
/// sides as expressions.
pub(crate) trait Target {
    /// Everything before section 0: header, helpers, signature.
    fn begin(&self) -> String {
        String::new()
    }
    /// Header of the loop at nest position `pos` (0 = outermost). A target
    /// without loops (CUDA: one thread per cell) returns nothing.
    fn open(&self, pos: usize, inner: Inner) -> String;
    /// Definition of instruction `i`'s value.
    fn def(&self, i: usize, depth: usize, rhs: &str) -> String;
    /// Store of register `val` to `to = (field slot, component, offset)`.
    fn store(&self, i: usize, depth: usize, to: StoreKey, val: VReg) -> String;
    fn fence(&self, i: usize, depth: usize) -> String;
    /// An op without register operands: constant, parameter, load, cell
    /// position, time, random number.
    fn leaf(&self, op: &TapeOp, depth: usize) -> String;
    /// A register operand.
    fn arg(&self, v: VReg) -> String {
        format!("r{}", v.0)
    }
    fn un(&self, op: UnOp, a: &str) -> String;
    fn bin(&self, op: BinOp, a: &str, b: &str) -> String;
    fn select(&self, op: CmpOp, l: &str, r: &str, t: &str, f: &str) -> String;
    /// Everything after the loop nest is closed.
    fn end(&self) -> String {
        String::new()
    }
}

/// Indentation of a statement inside `depth` open loops.
pub(crate) fn indent(depth: usize) -> String {
    "    ".repeat(depth + 1)
}

/// Nest position of dimension `d`'s loop (0 = outermost). A statement
/// inside `depth` open loops may use the index of a loop at a position
/// below `depth`; the loops not yet entered read as index 0 there, exactly
/// like the interpreters' zeroed `idx3` in hoisted sections.
pub(crate) fn loop_pos(order: [usize; 3], d: usize) -> usize {
    order.iter().position(|&o| o == d).expect("permutation")
}

fn instr(tape: &Tape, t: &dyn Target, i: usize, depth: usize) -> String {
    let rhs = match tape.instrs[i] {
        TapeOp::Store {
            field,
            comp,
            off,
            val,
        } => return t.store(i, depth, (field, comp, off), val),
        TapeOp::Fence => return t.fence(i, depth),
        TapeOp::CmpSelect { op, l, r, t: tv, f } => {
            t.select(op, &t.arg(l), &t.arg(r), &t.arg(tv), &t.arg(f))
        }
        op => match op.arith() {
            Some(Arith::Un(o, a)) => t.un(o, &t.arg(a)),
            Some(Arith::Bin(o, a, b)) => t.bin(o, &t.arg(a), &t.arg(b)),
            None => t.leaf(&op, depth),
        },
    };
    t.def(i, depth, &rhs)
}

/// Lower `tape` to source. `scalar` spells everything but the strip loop;
/// with `strip` the innermost loop is strip + tear-down, the tear-down body
/// being `scalar`'s section 3.
pub(crate) fn lower_nest(tape: &Tape, scalar: &dyn Target, strip: Option<&dyn Target>) -> String {
    let [s0, s1, s2] = tape.level_sections();
    let bounds = [0, s0, s1, s2, tape.instrs.len()];
    let section = |t: &dyn Target, depth: usize| -> String {
        (bounds[depth]..bounds[depth + 1])
            .map(|i| instr(tape, t, i, depth))
            .collect()
    };
    let mut out = scalar.begin();
    let mut opened = 0;
    for depth in 0..=3 {
        let mut inner = Inner::Scalar;
        if let (3, Some(v)) = (depth, strip) {
            out += &v.open(2, Inner::Strip);
            out += &section(v, 3);
            out += &format!("{}}}\n", indent(2));
            inner = Inner::TearDown;
        }
        if depth > 0 {
            let header = scalar.open(depth - 1, inner);
            opened += usize::from(!header.is_empty());
            out += &header;
        }
        out += &section(scalar, depth);
    }
    for pos in (0..opened).rev() {
        out += &format!("{}}}\n", indent(pos));
    }
    out + &scalar.end()
}
