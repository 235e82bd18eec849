//! Explicitly vectorized C emission (§3.5).
//!
//! "For CPUs, we generate an OpenMP parallel code that is also explicitly
//! vectorized using SIMD intrinsics. … Vectorization is done on the
//! intermediate representation by unrolling the loop by the vector length
//! and generating a tear-down loop for remaining cells. … We choose to
//! explicitly vectorize with intrinsics instead of relying on the
//! auto-vectorization of the compiler to have full control over the
//! process."
//!
//! [`SimdTarget`] spells the strip body of the one lowering
//! ([`crate::lower`]) in the AVX-512 (or AVX2/SSE) intrinsic set: aligned
//! loads for offset-0 x accesses (the arrays are padded so row starts are
//! aligned — `pf_fields`), unaligned loads otherwise, `blend` for the
//! branch-free selects, and — when the approx flags are set — the bare
//! `rsqrt14`/`rcp14` estimates, the AVX-512 counterpart of the paper's
//! approximate math. Hoisted sections, the loops around the strip and the
//! tear-down loop are the scalar C target's.

use crate::emit::CTarget;
use crate::lower::{indent, lower_nest, Inner, Target};
use pf_ir::interp::StoreKey;
use pf_ir::{BinOp, Tape, TapeOp, UnOp, VReg};
use pf_symbolic::CmpOp;

/// Supported SIMD instruction sets ("our tool supports the SSE, AVX, and
/// AVX512 SIMD instruction sets").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdIsa {
    Sse2,
    Avx2,
    Avx512,
}

impl SimdIsa {
    /// f64 lanes per vector.
    pub const fn lanes(self) -> usize {
        match self {
            SimdIsa::Sse2 => 2,
            SimdIsa::Avx2 => 4,
            SimdIsa::Avx512 => 8,
        }
    }

    pub fn vec_type(self) -> &'static str {
        match self {
            SimdIsa::Sse2 => "__m128d",
            SimdIsa::Avx2 => "__m256d",
            SimdIsa::Avx512 => "__m512d",
        }
    }

    fn prefix(self) -> &'static str {
        match self {
            SimdIsa::Sse2 => "_mm",
            SimdIsa::Avx2 => "_mm256",
            SimdIsa::Avx512 => "_mm512",
        }
    }
}

/// The strip body in intrinsics. Per-cell values are vector registers
/// `v<i>`; a hoisted value is the scalar target's `r<i>`, broadcast on use.
struct SimdTarget<'a> {
    c: &'a CTarget<'a>,
    isa: SimdIsa,
    /// Instructions below this index are hoisted out of the strip loop.
    hoisted: usize,
}

impl SimdTarget<'_> {
    /// `<prefix>_<name>_pd(args)`.
    fn call(&self, name: &str, args: &[&str]) -> String {
        format!("{}_{name}_pd({})", self.isa.prefix(), args.join(", "))
    }

    fn set1(&self, scalar: &str) -> String {
        self.call("set1", &[scalar])
    }

    /// `(double)(origin_x + ix) + {0, 1, …}`: the cell index along the strip.
    fn cell_x(&self) -> String {
        let lanes: Vec<String> = (0..self.isa.lanes())
            .rev()
            .map(|l| format!("{l}.0"))
            .collect();
        let offsets = self.call("set", &[&lanes.join(", ")]);
        self.call("add", &[&self.set1("(double)(origin_x + ix)"), &offsets])
    }
}

impl Target for SimdTarget<'_> {
    fn open(&self, pos: usize, _: Inner) -> String {
        let (ind, lanes, n) = (indent(pos), self.isa.lanes(), self.c.bound(0));
        format!("{ind}long ix = 0;\n{ind}for (; ix + {lanes} <= {n}; ix += {lanes}) {{\n")
    }

    fn def(&self, i: usize, depth: usize, rhs: &str) -> String {
        format!(
            "{}const {} v{i} = {rhs};\n",
            indent(depth),
            self.isa.vec_type()
        )
    }

    fn store(&self, _: usize, depth: usize, (field, comp, off): StoreKey, val: VReg) -> String {
        let intr = if off[0] == 0 { "store" } else { "storeu" };
        let to = format!("&{}", self.c.access(field, comp, off, depth));
        let stmt = self.call(intr, &[&to, &self.arg(val)]);
        format!("{}{stmt};\n", indent(depth))
    }

    fn fence(&self, i: usize, depth: usize) -> String {
        self.c.fence(i, depth)
    }

    fn leaf(&self, op: &TapeOp, depth: usize) -> String {
        match *op {
            // Aligned rows: offset-0 x accesses hit aligned addresses ("thus
            // aligned reads and writes can be issued for all array accesses
            // that have no offset in the fastest coordinate").
            TapeOp::Load { off, .. } => {
                let intr = if off[0] == 0 { "load" } else { "loadu" };
                self.call(intr, &[&format!("&{}", self.c.leaf(op, depth))])
            }
            // Only x varies along the strip.
            TapeOp::Coord(0) => {
                let centre = self.call("add", &[&self.cell_x(), &self.set1("0.5")]);
                self.call("mul", &[&centre, &self.set1("dx_x")])
            }
            TapeOp::CellIdx(0) => self.cell_x(),
            TapeOp::Rand(lane) => format!(
                "pf_philox_pm1_vec(origin_x + ix, origin_y + iy, origin_z + iz, timestep, seed, {lane})"
            ),
            _ => self.set1(&self.c.leaf(op, depth)),
        }
    }

    fn arg(&self, v: VReg) -> String {
        if (v.0 as usize) < self.hoisted {
            self.set1(&format!("r{}", v.0))
        } else {
            format!("v{}", v.0)
        }
    }

    fn un(&self, op: UnOp, a: &str) -> String {
        let avx512 = self.isa == SimdIsa::Avx512;
        let zero = self.call("setzero", &[]);
        match op {
            UnOp::Neg => self.call("sub", &[&zero, a]),
            UnOp::Sqrt => self.call("sqrt", &[a]),
            // The paper: "we use for example rsqrt14 intrinsics to
            // approximate reciprocal square roots on AVX512".
            UnOp::RSqrt if avx512 && self.c.tape.approx.fast_rsqrt => self.call("rsqrt14", &[a]),
            UnOp::RSqrt => self.call("div", &[&self.set1("1.0"), &self.call("sqrt", &[a])]),
            UnOp::Abs if avx512 => self.call("abs", &[a]),
            UnOp::Abs => self.call("andnot", &[&self.set1("-0.0"), a]),
            // Transcendentals go through the vendor vector-math library
            // (SVML names, as icc would emit).
            UnOp::Exp => self.call("exp", &[a]),
            UnOp::Ln => self.call("log", &[a]),
            UnOp::Sin => self.call("sin", &[a]),
            UnOp::Cos => self.call("cos", &[a]),
            UnOp::Tanh => self.call("tanh", &[a]),
            // (x > 0 ? 1 : 0) - (x < 0 ? 1 : 0), so sign(±0) = 0.
            UnOp::Sign => {
                let one = self.set1("1.0");
                let pos = self.select(CmpOp::Gt, a, &zero, &one, &zero);
                let neg = self.select(CmpOp::Lt, a, &zero, &one, &zero);
                self.call("sub", &[&pos, &neg])
            }
            UnOp::Floor if avx512 => self.call("roundscale", &[a, "0x09"]),
            UnOp::Floor => self.call("floor", &[a]),
        }
    }

    fn bin(&self, op: BinOp, a: &str, b: &str) -> String {
        match op {
            BinOp::Add => self.call("add", &[a, b]),
            BinOp::Sub => self.call("sub", &[a, b]),
            BinOp::Mul => self.call("mul", &[a, b]),
            // The approximate division is the bare 14-bit reciprocal
            // estimate times the numerator, no refinement step.
            BinOp::Div if self.isa == SimdIsa::Avx512 && self.c.tape.approx.fast_div => {
                self.call("mul", &[a, &self.call("rcp14", &[b])])
            }
            BinOp::Div => self.call("div", &[a, b]),
            BinOp::Min => self.call("min", &[a, b]),
            BinOp::Max => self.call("max", &[a, b]),
            BinOp::Powf => self.call("pow", &[a, b]),
        }
    }

    /// Branch-free blend — "piecewise-defined functions … can be
    /// efficiently mapped to blend vector instructions".
    fn select(&self, op: CmpOp, l: &str, r: &str, t: &str, f: &str) -> String {
        let imm = match op {
            CmpOp::Lt => "_CMP_LT_OQ",
            CmpOp::Le => "_CMP_LE_OQ",
            CmpOp::Gt => "_CMP_GT_OQ",
            CmpOp::Ge => "_CMP_GE_OQ",
            CmpOp::Eq => "_CMP_EQ_OQ",
            CmpOp::Ne => "_CMP_NEQ_UQ",
        };
        let p = self.isa.prefix();
        match self.isa {
            SimdIsa::Avx512 => {
                format!("{p}_mask_blend_pd({p}_cmp_pd_mask({l}, {r}, {imm}), {f}, {t})")
            }
            _ => format!("{p}_blendv_pd({f}, {t}, {p}_cmp_pd({l}, {r}, {imm}))"),
        }
    }
}

/// Emit `tape` as an explicitly vectorized OpenMP C kernel for `isa`.
///
/// The x loop steps by the vector width over the intrinsics body and
/// finishes the row in a scalar tear-down loop; instructions hoisted out of
/// it (level < 3) are scalars at their loop depth, broadcast on use. Strips
/// run along the unit-stride x dimension, so a tape whose innermost loop is
/// not x gets the scalar nest.
pub fn emit_c_simd(tape: &Tape, isa: SimdIsa) -> String {
    let (vt, p, lanes) = (isa.vec_type(), isa.prefix(), isa.lanes());
    let prelude = format!(
        "// generated by pf-backend — kernel `{}`, explicit {isa:?} vectorization\n\
         // exp/log/sin/cos/tanh/pow are SVML names (the paper targets icc);\n\
         // gcc and clang do not declare them.\n\
         #include <immintrin.h>\n#include <math.h>\n#include \"philox.h\"\n\n\
         static inline {vt} pf_philox_pm1_vec(long x, long y, long z,\n        \
         unsigned long timestep, unsigned seed, int lane)\n{{\n    \
         double v[{lanes}];\n    \
         for (int l = 0; l < {lanes}; ++l) v[l] = philox_pm1(x + l, y, z, timestep, seed, lane);\n    \
         return {p}_loadu_pd(v);\n}}\n\n",
        tape.name
    );
    let c = CTarget {
        tape,
        prelude,
        suffix: "_simd",
        cuda: None,
    };
    let strip = SimdTarget {
        c: &c,
        isa,
        hoisted: tape.level_sections()[2],
    };
    let strip = (tape.loop_order[2] == 0).then_some(&strip as &dyn Target);
    lower_nest(tape, &c, strip)
}
