//! C and CUDA source emission (§3.5 of the paper).
//!
//! "In the final step of the code generation pipeline, our intermediate
//! representation is transformed into C or CUDA code." The engines in
//! `exec.rs` are what actually runs in this Rust reproduction; these are the
//! C targets of the one lowering in [`crate::lower`] — OpenMP C, CUDA (the
//! same walk with no loops and a bounds guard) and, in [`crate::simd`], the
//! strip body in explicit intrinsics — so the end-to-end artifact of the
//! paper's pipeline, generated code, exists and can be inspected, tested
//! and handed to a C compiler (`tests/op_table.rs`).

use crate::lower::{indent, loop_pos, lower_nest, Inner, Target};
use pf_ir::interp::StoreKey;
use pf_ir::{BinOp, Tape, TapeOp, UnOp, VReg};
use pf_symbolic::CmpOp;
use std::fmt::Write as _;

/// CUDA thread-to-cell mapping strategies (§3.5: "for the mapping of CUDA
/// threads to domain cells several strategies are implemented").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadMapping {
    /// One thread per cell, 3D block `(bx, by, bz)`.
    Block3D { bx: u32, by: u32, bz: u32 },
    /// Linearized 1D indexing over the whole block.
    Linear1D { threads: u32 },
}

impl ThreadMapping {
    pub fn threads_per_block(&self) -> u32 {
        match *self {
            ThreadMapping::Block3D { bx, by, bz } => bx * by * bz,
            ThreadMapping::Linear1D { threads } => threads,
        }
    }
}

const XYZ: [&str; 3] = ["x", "y", "z"];

fn c_ident(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// The scalar C target, and with `cuda` the CUDA one. `prelude` (header
/// comment, includes, helpers) and the kernel-name `suffix` are what the
/// three C-family emitters differ in before the signature.
pub(crate) struct CTarget<'a> {
    pub(crate) tape: &'a Tape,
    pub(crate) prelude: String,
    pub(crate) suffix: &'static str,
    pub(crate) cuda: Option<ThreadMapping>,
}

impl CTarget<'_> {
    /// Upper loop bound of dimension `d`: face kernels sweep `iter_extent`
    /// cells past the interior.
    pub(crate) fn bound(&self, d: usize) -> String {
        match self.tape.iter_extent[d] {
            0 => format!("n{}", XYZ[d]),
            e => format!("n{} + {e}", XYZ[d]),
        }
    }

    /// Index of dimension `d` for a statement inside `depth` open loops;
    /// a CUDA thread has all three from the start.
    fn idx(&self, d: usize, depth: usize) -> String {
        if self.cuda.is_some() || loop_pos(self.tape.loop_order, d) < depth {
            format!("i{}", XYZ[d])
        } else {
            "0".to_owned()
        }
    }

    /// `f_<field>[…]`; strides are kernel arguments `s_<field>_{c,x,y,z}`.
    pub(crate) fn access(&self, slot: u16, comp: u16, off: [i16; 3], depth: usize) -> String {
        let f = c_ident(&self.tape.fields[slot as usize].name());
        let mut s = format!("f_{f}[{comp}*s_{f}_c");
        for (d, o) in off.iter().enumerate() {
            let i = self.idx(d, depth);
            let _ = match o {
                0 => write!(s, " + ({i})*s_{f}_{}", XYZ[d]),
                o => write!(s, " + ({i} + {o})*s_{f}_{}", XYZ[d]),
            };
        }
        s + "]"
    }

    /// Statement indentation: a CUDA thread body has no loops around it.
    fn ind(&self, depth: usize) -> String {
        indent(if self.cuda.is_some() { 0 } else { depth })
    }

    fn signature(&self) -> String {
        let tape = self.tape;
        let mut args: Vec<String> = Vec::new();
        for f in &tape.fields {
            let n = c_ident(&f.name());
            args.push(format!("double* restrict f_{n}"));
            args.push(format!(
                "const long s_{n}_c, const long s_{n}_x, const long s_{n}_y, const long s_{n}_z"
            ));
        }
        for p in &tape.params {
            args.push(format!("const double p_{}", c_ident(p.name())));
        }
        args.push("const long nx, const long ny, const long nz".to_owned());
        args.push("const long origin_x, const long origin_y, const long origin_z".to_owned());
        args.push("const double dx_x, const double dx_y, const double dx_z".to_owned());
        args.push("const double t, const unsigned long timestep, const unsigned seed".to_owned());
        args.join(",\n        ")
    }
}

impl Target for CTarget<'_> {
    fn begin(&self) -> String {
        let name = format!("kernel_{}{}", c_ident(&self.tape.name), self.suffix);
        let sig = self.signature();
        let mut out = self.prelude.clone();
        let Some(mapping) = self.cuda else {
            let _ = writeln!(out, "void {name}(\n        {sig})\n{{");
            return out;
        };
        let _ = writeln!(
            out,
            "__global__ void {name}(\n        {})\n{{",
            sig.replace("restrict", "__restrict__")
        );
        let _ = match mapping {
            ThreadMapping::Block3D { .. } => writeln!(
                out,
                "    const long ix = blockIdx.x * blockDim.x + threadIdx.x;\n    \
                 const long iy = blockIdx.y * blockDim.y + threadIdx.y;\n    \
                 const long iz = blockIdx.z * blockDim.z + threadIdx.z;"
            ),
            ThreadMapping::Linear1D { .. } => writeln!(
                out,
                "    const long tid = blockIdx.x * blockDim.x + threadIdx.x;\n    \
                 const long ix = tid % ({ex});\n    \
                 const long iy = (tid / ({ex})) % ({ey});\n    \
                 const long iz = tid / (({ex}) * ({ey}));",
                ex = self.bound(0),
                ey = self.bound(1)
            ),
        };
        let _ = writeln!(
            out,
            "    if (ix >= {} || iy >= {} || iz >= {}) return;",
            self.bound(0),
            self.bound(1),
            self.bound(2)
        );
        out
    }

    fn open(&self, pos: usize, inner: Inner) -> String {
        if self.cuda.is_some() {
            return String::new();
        }
        let ind = indent(pos);
        let d = self.tape.loop_order[pos];
        let (i, n) = (format!("i{}", XYZ[d]), self.bound(d));
        if inner == Inner::TearDown {
            return format!("{ind}for (; {i} < {n}; ++{i}) {{\n");
        }
        let pragma = match pos {
            0 => format!("{ind}#pragma omp parallel for schedule(static)\n"),
            2 => format!("{ind}#pragma omp simd\n"),
            _ => String::new(),
        };
        format!("{pragma}{ind}for (long {i} = 0; {i} < {n}; ++{i}) {{\n")
    }

    fn def(&self, i: usize, depth: usize, rhs: &str) -> String {
        format!("{}const double r{i} = {rhs};\n", self.ind(depth))
    }

    fn store(&self, _: usize, depth: usize, (field, comp, off): StoreKey, val: VReg) -> String {
        let access = self.access(field, comp, off, depth);
        format!("{}{access} = r{};\n", self.ind(depth), val.0)
    }

    fn fence(&self, _: usize, depth: usize) -> String {
        let fence = if self.cuda.is_some() {
            "__threadfence();"
        } else {
            "/* scheduling fence */"
        };
        format!("{}{fence}\n", self.ind(depth))
    }

    fn leaf(&self, op: &TapeOp, depth: usize) -> String {
        let i = |d: usize| self.idx(d, depth);
        match *op {
            TapeOp::Const(c) => c_const(c.0),
            TapeOp::Param(p) => format!("p_{}", c_ident(self.tape.params[p as usize].name())),
            TapeOp::Load { field, comp, off } => self.access(field, comp, off, depth),
            TapeOp::Coord(d) => {
                let d = d as usize;
                format!("(origin_{0} + {1} + 0.5)*dx_{0}", XYZ[d], i(d))
            }
            TapeOp::Time => "t".to_owned(),
            TapeOp::CellIdx(d) => {
                format!("(double)(origin_{} + {})", XYZ[d as usize], i(d as usize))
            }
            TapeOp::Rand(lane) => format!(
                "philox_pm1(origin_x + {}, origin_y + {}, origin_z + {}, timestep, seed, {lane})",
                i(0),
                i(1),
                i(2)
            ),
            _ => unreachable!("{op:?} is not a leaf"),
        }
    }

    fn un(&self, op: UnOp, a: &str) -> String {
        let ap = self.tape.approx;
        let call = |f: &str| format!("{f}({a})");
        match op {
            UnOp::Neg => format!("-{a}"),
            UnOp::Sqrt if self.cuda.is_some() && ap.fast_sqrt => {
                format!("(double)__fsqrt_rn((float){a})")
            }
            UnOp::Sqrt => call("sqrt"),
            UnOp::RSqrt if self.cuda.is_some() && ap.fast_rsqrt => {
                format!("(double)__frsqrt_rn((float){a})")
            }
            UnOp::RSqrt => format!("1.0 / sqrt({a})"),
            UnOp::Abs => call("fabs"),
            UnOp::Exp => call("exp"),
            UnOp::Ln => call("log"),
            UnOp::Sin => call("sin"),
            UnOp::Cos => call("cos"),
            UnOp::Tanh => call("tanh"),
            UnOp::Sign => format!("({a} > 0.0 ? 1.0 : ({a} < 0.0 ? -1.0 : 0.0))"),
            UnOp::Floor => call("floor"),
        }
    }

    fn bin(&self, op: BinOp, a: &str, b: &str) -> String {
        match op {
            BinOp::Add => format!("{a} + {b}"),
            BinOp::Sub => format!("{a} - {b}"),
            BinOp::Mul => format!("{a} * {b}"),
            BinOp::Div if self.cuda.is_some() && self.tape.approx.fast_div => {
                format!("__fdividef((float){a}, (float){b})")
            }
            BinOp::Div => format!("{a} / {b}"),
            BinOp::Min => format!("fmin({a}, {b})"),
            BinOp::Max => format!("fmax({a}, {b})"),
            BinOp::Powf => format!("pow({a}, {b})"),
        }
    }

    fn select(&self, op: CmpOp, l: &str, r: &str, t: &str, f: &str) -> String {
        format!("({l} {} {r} ? {t} : {f})", op.symbol())
    }

    fn end(&self) -> String {
        "}\n".to_owned()
    }
}

/// A double literal C parses back to the same bits: Rust's shortest
/// round-trip decimal, integers with a `.0`.
fn c_const(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v:?}")
    }
}

/// Emit an OpenMP-parallel C kernel.
pub fn emit_c(tape: &Tape) -> String {
    let prelude = format!(
        "// generated by pf-backend — kernel `{}`\n#include <math.h>\n#include \"philox.h\"\n\n",
        tape.name
    );
    let target = CTarget {
        tape,
        prelude,
        suffix: "",
        cuda: None,
    };
    lower_nest(tape, &target, None)
}

/// Emit a CUDA `__global__` kernel with the chosen thread mapping.
pub fn emit_cuda(tape: &Tape, mapping: ThreadMapping) -> String {
    let prelude = format!(
        "// generated by pf-backend — CUDA kernel `{}`\n#include \"philox.cuh\"\n\n",
        tape.name
    );
    let target = CTarget {
        tape,
        prelude,
        suffix: "",
        cuda: Some(mapping),
    };
    lower_nest(tape, &target, None)
}
