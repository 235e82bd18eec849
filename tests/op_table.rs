//! The op table and the loop-nest lowering against everything that has its
//! own opinion of an op: `pf_ir::interp_cell` and `pf_symbolic::Func::eval`
//! (hand-written, independent), the three engines against each other under
//! every worker count, the pinned native source byte for byte, and the host
//! C compiler.
//!
//! One hand-built tape carries every `TapeOp` variant, hoisted and per
//! cell; the emitter checks that used to build their own sample kernels in
//! `emit.rs`/`simd.rs` read it too.

use pf_backend::{
    emit_c, emit_c_simd, emit_cuda, emit_rust, run_kernel, with_workers, ExecMode, FieldStore,
    IterRegion, Launch, RunCtx, SimdIsa, ThreadMapping,
};
use pf_fields::{FieldArray, Layout};
use pf_ir::{
    apply_licm, apply_loop_order, interp_cell, ApproxOptions, Arith, BinOp, Tape, TapeBuilder,
    TapeEnv, TapeOp, UnOp, VReg, CF,
};
use pf_symbolic::{CmpOp, Field, Func, Symbol};
use std::sync::{Mutex, OnceLock};

/// Values the all-ops tape stores, one `ops_dst` component each.
const OUTPUTS: usize = 4 * 18 + 6 + 3;

fn fields() -> (Field, Field) {
    static F: OnceLock<(Field, Field)> = OnceLock::new();
    *F.get_or_init(|| {
        (
            Field::new("ops_src", 2, 3),
            Field::new("ops_dst", OUTPUTS, 3),
        )
    })
}

/// Every `TapeOp` variant: the 11 unary and 7 binary ops per cell and in
/// each hoisted section, `CmpSelect` under each `CmpOp`, `Coord`/`CellIdx`
/// in each dimension, `Rand`, `Time`, `Param`, `Fence`, off-centre loads.
/// Operands stay inside every op's domain, and every value is stored to a
/// component of its own: nothing is summed away, and a C compiler under
/// `-Werror` finds no unused variable.
fn all_ops_tape(approx: bool) -> Tape {
    use TapeOp::*;
    let (src, dst) = fields();
    let mut b = TapeBuilder::new(if approx { "ops_all_approx" } else { "ops_all" });
    let (s, d) = (b.field_slot(src), b.field_slot(dst));
    let (pa, pb) = (
        b.param_slot(Symbol::new("ops_a")),
        b.param_slot(Symbol::new("ops_b")),
    );
    let mut outs = Vec::new();
    // The 18 arithmetic ops on x ≥ 1, c = x - 8 (crosses zero) and q = c / x.
    let mut arith = |b: &mut TapeBuilder, x: VReg| {
        let eight = b.emit(Const(CF(8.0)));
        let c = b.emit(Sub(x, eight));
        let q = b.emit(Div(c, x));
        outs.extend([c, q]);
        for op in [
            Neg(c),
            Sqrt(x),
            RSqrt(x),
            Abs(c),
            Exp(q),
            Ln(x),
            Sin(c),
            Cos(c),
            Tanh(c),
            Sign(c),
            Floor(q),
            Add(x, c),
            Mul(x, c),
            Min(c, q),
            Max(c, q),
            Powf(x, q),
        ] {
            outs.push(b.emit(op));
        }
    };
    // A launch-invariant, a z-only and a (y,z)-only operand, each ≥ 1.
    let (a, scale, time) = (b.emit(Param(pa)), b.emit(Param(pb)), b.emit(Time));
    let (a, one) = (b.emit(Abs(a)), b.emit(Const(CF(1.0))));
    let a = b.emit(Add(a, one));
    let mut h = b.emit(Add(a, time));
    arith(&mut b, h);
    for dim in [2, 1] {
        let (c, k) = (b.emit(Coord(dim)), b.emit(CellIdx(dim)));
        let ck = b.emit(Mul(c, k));
        let ck = b.emit(Abs(ck));
        let ck = b.emit(Mul(ck, scale));
        h = b.emit(Add(h, ck));
        arith(&mut b, h);
    }
    // Per cell: multiples of 1/4 from the source field plus the x index.
    let mut load = |comp, off| {
        b.emit(Load {
            field: s,
            comp,
            off,
        })
    };
    let u = load(0, [0, 0, 0]);
    let nbrs = [
        load(0, [-1, 0, 0]),
        load(0, [0, 1, 0]),
        load(1, [0, 0, -1]),
        load(1, [1, 0, 0]),
    ];
    let (cx, kx, u) = (b.emit(Coord(0)), b.emit(CellIdx(0)), b.emit(Abs(u)));
    let x = b.emit(Add(u, one));
    let x = b.emit(Add(x, kx));
    arith(&mut b, x);
    let ops = [
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
        CmpOp::Eq,
        CmpOp::Ne,
    ];
    let floors = nbrs.map(|n| b.emit(Floor(n))); // in {-1, 0, 1}: Eq and Ne go both ways
    for (n, op) in ops.into_iter().enumerate() {
        let (l, r, t, f) = (floors[n % 4], floors[(n + 1) % 4], nbrs[2], nbrs[3]);
        outs.push(b.emit(CmpSelect { op, l, r, t, f }));
    }
    b.emit(Fence);
    outs.extend([cx, b.emit(Rand(0)), b.emit(Rand(1))]);
    assert_eq!(outs.len(), OUTPUTS);
    for (comp, &val) in outs.iter().enumerate() {
        b.emit(Store {
            field: d,
            comp: comp as u16,
            off: [0; 3],
            val,
        });
    }
    let mut t = b.finish([0; 3]);
    t.approx = ApproxOptions {
        fast_div: approx,
        fast_sqrt: approx,
        fast_rsqrt: approx,
    };
    apply_licm(&mut t);
    t.validate().expect("all-ops tape is well-formed");
    t
}

const PARAMS: [f64; 2] = [-0.75, 1.5];

fn ctx() -> RunCtx {
    RunCtx {
        time: 0.25,
        timestep: 7,
        dx: [0.5, 0.25, 2.0],
        origin: [3, -2, 5],
        seed: 11,
    }
}

/// Run `tape` over `domain`; returns (src, dst). `halves`: through one
/// [`Launch`] bound once and run twice, over the two halves of the x range,
/// instead of one `run_kernel`.
fn sweep(
    tape: &Tape,
    domain: [usize; 3],
    mode: ExecMode,
    halves: bool,
) -> (FieldArray, FieldArray) {
    let (src, dst) = fields();
    let mut store = FieldStore::new();
    let a = store.allocate(src, domain, 1, Layout::Fzyx);
    for comp in 0..2 {
        // Multiples of 1/4 in [-1, 1.5]: exact zeros and equal neighbours.
        a.fill_with(comp, |x, y, z| {
            ((x * 7 + y * 3 + z * 5 + comp) % 11) as f64 * 0.25 - 1.0
        });
    }
    for d in 0..3 {
        store.get_mut(src).apply_periodic(d);
    }
    store.allocate(dst, domain, 1, Layout::Fzyx);
    if halves {
        let mut launch = Launch::bind(tape, &store, domain, mode).expect("binds as asked");
        let (mut low, mut high) = (IterRegion::full(domain), IterRegion::full(domain));
        low.hi[0] = domain[0] / 2;
        high.lo[0] = domain[0] / 2;
        launch.run(&mut store, &PARAMS, low, &ctx());
        launch.run(&mut store, &PARAMS, high, &ctx());
    } else {
        run_kernel(tape, &mut store, &PARAMS, domain, &ctx(), mode);
    }
    (store.take(src), store.take(dst))
}

fn bits(a: &FieldArray) -> Vec<u64> {
    a.data().iter().map(|v| v.to_bits()).collect()
}

/// One cell of a sweep as the reference interpreter's environment.
struct CellEnv<'a> {
    src: &'a FieldArray,
    cell: [usize; 3],
}

impl TapeEnv for CellEnv<'_> {
    fn param(&self, slot: usize) -> f64 {
        PARAMS[slot]
    }
    fn load(&self, _: usize, comp: u16, off: [i16; 3]) -> f64 {
        let at = |d: usize| self.cell[d] as isize + off[d] as isize;
        self.src.get(comp as usize, at(0), at(1), at(2))
    }
    fn coord(&self, d: usize) -> f64 {
        (self.cell_idx(d) + 0.5) * ctx().dx[d]
    }
    fn time(&self) -> f64 {
        ctx().time
    }
    fn cell_idx(&self, d: usize) -> f64 {
        ctx().origin[d] as f64 + self.cell[d] as f64
    }
    fn rand(&self, lane: usize) -> f64 {
        let c = ctx();
        let cell = [0, 1, 2].map(|d| c.origin[d] + self.cell[d] as i64);
        pf_rng::CellRng::new(c.seed).uniform_pm1(cell, c.timestep, lane as u32)
    }
}

/// The native engine compiles through a process-global cache directory.
static NATIVE: Mutex<()> = Mutex::new(());

#[test]
fn every_op_agrees_across_the_engines_and_with_the_reference_interpreter() {
    let _g = NATIVE.lock().unwrap_or_else(|p| p.into_inner());
    let native = pf_backend::native_available();
    if !native {
        eprintln!("SKIPPED native leg: rustc cannot produce loadable cdylibs in this sandbox");
    }
    let mut kinds = std::collections::HashSet::new();
    for approx in [false, true] {
        let tape = all_ops_tape(approx);
        kinds.extend(tape.instrs.iter().map(std::mem::discriminant));
        let sec = tape.level_sections();
        assert!(
            0 < sec[0] && sec[0] < sec[1] && sec[1] < sec[2] && sec[2] < tape.instrs.len(),
            "all four level sections are populated: {sec:?}"
        );
        // Two strips + 3 cells, and a row shorter than one strip. The outer
        // (z) extents 3 and 2 lie below the larger worker counts.
        for domain in [[19, 4, 3], [5, 3, 2]] {
            let (src, serial) = sweep(&tape, domain, ExecMode::Serial, false);
            assert!(
                serial.data().iter().all(|v| v.is_finite()),
                "operands left an op's domain"
            );
            let engines = [ExecMode::Serial, ExecMode::Vectorized, ExecMode::Native];
            for mode in engines.into_iter().take(if native { 3 } else { 2 }) {
                for workers in [1, 2, 3, 5] {
                    for halves in [false, true] {
                        let got = with_workers(workers, || sweep(&tape, domain, mode, halves)).1;
                        let what =
                            format!("{mode:?}, {domain:?}, halves: {halves}, {workers} workers");
                        assert_eq!(bits(&serial), bits(&got), "{what}");
                    }
                }
            }
            if approx {
                continue; // the reference interpreter is exact-mode only
            }
            for z in 0..domain[2] {
                for y in 0..domain[1] {
                    for x in 0..domain[0] {
                        let env = CellEnv {
                            src: &src,
                            cell: [x, y, z],
                        };
                        for ((_, comp, _), want) in interp_cell(&tape, &env).stores {
                            let got = serial.get(comp as usize, x as isize, y as isize, z as isize);
                            assert_eq!(got.to_bits(), want.to_bits(), "cell {:?}", env.cell);
                        }
                    }
                }
            }
        }
    }
    // Const Param Load Coord Time CellIdx Rand + 18 arithmetic + CmpSelect
    // Store Fence.
    assert_eq!(kinds.len(), 28, "a TapeOp variant is missing from the tape");
}

/// The symbolic layer's function of the same name as `op`, if it has one.
fn func_named(op: &dyn std::fmt::Debug) -> Option<Func> {
    use Func::*;
    let name = format!("{op:?}").to_lowercase();
    let funcs = [Abs, Min, Max, Exp, Ln, Sin, Cos, Tanh, Sign, Floor];
    funcs.into_iter().find(|f| f.name() == name)
}

#[test]
fn table_agrees_with_the_reference_interpreter_and_the_symbolic_layer() {
    struct Params([f64; 2]);
    impl TapeEnv for Params {
        fn param(&self, slot: usize) -> f64 {
            self.0[slot]
        }
        fn load(&self, _: usize, _: u16, _: [i16; 3]) -> f64 {
            unreachable!("no loads")
        }
    }
    // `op` over (x, y) as a one-instruction tape under `interp_cell`.
    let reference = |op: Arith, x: f64, y: f64| {
        let mut b = TapeBuilder::new("one_op");
        for (slot, name) in ["ops_a", "ops_b"].into_iter().enumerate() {
            b.param_slot(Symbol::new(name));
            b.emit(TapeOp::Param(slot as u16));
        }
        b.emit(op.into());
        interp_cell(&b.finish([0; 3]), &Params([x, y])).regs[2]
    };
    let same = |what: String, got: f64, want: f64| {
        let equal = got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan());
        assert!(equal, "{what}: table {got:?}, independent copy {want:?}");
    };
    let exact = ApproxOptions::default();
    let (inf, subnormal) = (f64::INFINITY, f64::MIN_POSITIVE / 2.0);
    let values = [0.0, -0.0, 1.5, -1.5, inf, -inf, f64::NAN, subnormal, 1e300];
    for a in values {
        for &op in UnOp::ALL {
            let (got, what) = (op.eval(a, exact), format!("{op:?}({a:?})"));
            same(what.clone(), got, reference(Arith::Un(op, VReg(0)), a, 0.0));
            if let Some(f) = func_named(&op) {
                same(what, got, f.eval(&[a]));
            }
        }
        for (b, &op) in values
            .into_iter()
            .flat_map(|b| BinOp::ALL.iter().map(move |op| (b, op)))
        {
            let (got, what) = (op.eval(a, b, exact), format!("{op:?}({a:?}, {b:?})"));
            same(
                what.clone(),
                got,
                reference(Arith::Bin(op, VReg(0), VReg(1)), a, b),
            );
            if let Some(f) = func_named(&op) {
                same(what, got, f.eval(&[a, b]));
            }
        }
    }
}

/// The all-ops tape in both modes, then the ten tapes of the P1 kernel set.
fn pinned_tapes() -> Vec<Tape> {
    let ks = pf_core::generate_kernels(&pf_core::p1(), &pf_ir::GenOptions::default());
    let (phi, mu) = (ks.phi_split, ks.mu_split);
    let mut tapes = vec![all_ops_tape(false), all_ops_tape(true)];
    tapes.extend([ks.phi_full, ks.mu_full, phi.update, mu.update]);
    tapes.extend(phi.flux_tapes.into_iter().chain(mu.flux_tapes));
    tapes
}

/// FNV-1a of the native source without the two lines that carry
/// `structural_hash` (it hashes process-local field and symbol ids).
fn source_pin(tape: &Tape) -> u64 {
    let src = emit_rust(tape);
    let stable = src
        .lines()
        .filter(|l| !l.contains("structural_hash 0x") && !l.contains("fn pf_meta()"));
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in stable.flat_map(|l| l.bytes().chain([b'\n'])) {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `source_pin` of `pinned_tapes()`. Native artifact caches key on this
/// text. Moved once, on purpose, by PR 16 (`pf-native-abi/2`: `pf_kernel` is
/// the plain loop nest, threads are `Launch`'s); before that the literals
/// dated from 7e2e004 (PR 12).
const PINS: [u64; 12] = [
    0xe61f_e3e0_5ed8_97d5,
    0x50e9_61ff_d423_1d6e,
    0xece1_88c8_9250_e4c9,
    0xe913_5329_589c_f0f3,
    0xafae_8d1a_ecc4_a6e7,
    0x1cd8_f9bd_c462_9097,
    0xbbbd_3106_7b1a_9d21,
    0x0602_5a8e_85ef_3ced,
    0x0901_9d34_f34e_4a31,
    0x990d_bf0a_d353_2216,
    0x4167_afe4_92b0_1997,
    0x022b_1319_c7c3_2403,
];

#[test]
fn native_source_is_pinned_and_a_plain_loop_nest() {
    for (tape, want) in pinned_tapes().iter().zip(PINS) {
        let got = source_pin(tape);
        assert_eq!(got, want, "{}: 0x{got:016x}", tape.name);
        let src = emit_rust(tape);
        assert!(
            !src.contains("thread"),
            "{}: threads are Launch's",
            tape.name
        );
        let exports: Vec<&str> = src
            .split("#[no_mangle]\n")
            .skip(1)
            .map(|item| item.split('(').next().expect("a signature"))
            .collect();
        let (kernel, meta) = (
            "pub unsafe extern \"C\" fn pf_kernel",
            "pub extern \"C\" fn pf_meta",
        );
        assert_eq!(exports, [kernel, meta], "{}", tape.name);
    }
}

#[test]
fn emitted_c_passes_the_host_c_compiler() {
    // `emit-cc: SKIPPED` is what scripts/ci.sh greps for: the CI image has
    // a C compiler, so a skip there is a failure.
    let cc_works = std::process::Command::new("cc").arg("--version").output();
    if !cc_works.is_ok_and(|o| o.status.success()) {
        println!("emit-cc: SKIPPED (no `cc` on PATH)");
        return;
    }
    let dir = std::env::temp_dir().join(format!("pf-emit-cc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let philox = "double philox_pm1(long x, long y, long z, unsigned long timestep, \
                  unsigned seed, int lane);\n";
    std::fs::write(dir.join("philox.h"), philox).expect("write philox.h");
    let check = |name: &str, src: &str, flags: &[&str]| {
        let path = dir.join(format!("{name}.c"));
        std::fs::write(&path, src).expect("write source");
        let out = std::process::Command::new("cc")
            .args(["-std=c99", "-fopenmp", "-Wall", "-Werror", "-fsyntax-only"])
            .args(flags)
            .arg(&path)
            .output()
            .expect("run cc");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.success(),
            "{name}: cc rejected the source:\n{err}"
        );
    };
    let mut reordered = all_ops_tape(true);
    apply_loop_order(&mut reordered, [1, 2, 0]);
    for t in [all_ops_tape(false), reordered] {
        check(&format!("{}_{:?}", t.name, t.loop_order), &emit_c(&t), &[]);
    }
    // The P1 tapes hold no transcendental, so their intrinsics source needs
    // no SVML; the face tapes sweep nx + 1 cells per row.
    for t in &pinned_tapes()[2..] {
        check(&t.name, &emit_c(t), &[]);
        let simd = emit_c_simd(t, SimdIsa::Avx512);
        check(&format!("{}_simd", t.name), &simd, &["-mavx512f"]);
    }
    println!("emit-cc: ok");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Byte offset of `needle` in `src`; panics with the source when absent.
fn at(src: &str, needle: &str) -> usize {
    src.find(needle)
        .unwrap_or_else(|| panic!("`{needle}` not in:\n{src}"))
}

#[test]
fn c_and_cuda_targets_spell_the_nest_the_ops_and_the_approximations() {
    let tape = all_ops_tape(false);
    let c = emit_c(&tape);
    at(&c, "void kernel_ops_all(");
    at(&c, "philox_pm1(");
    // Hoisted sections stand before the loop they are invariant in.
    let (outer, inner) = (
        at(&c, "#pragma omp parallel for"),
        at(&c, "#pragma omp simd"),
    );
    assert!(
        at(&c, "p_ops_a") < outer,
        "parameter chain not hoisted:\n{c}"
    );
    assert!(outer < at(&c, "origin_z + iz") && at(&c, "origin_z + iz") < inner);
    assert!(inner < at(&c, "f_ops_src["), "loads are per cell:\n{c}");
    let mut by_y = tape.clone();
    apply_loop_order(&mut by_y, [1, 2, 0]);
    let c = emit_c(&by_y);
    assert!(at(&c, "for (long iy") < at(&c, "for (long iz"), "{c}");

    let block = ThreadMapping::Block3D {
        bx: 8,
        by: 8,
        bz: 4,
    };
    let cuda = emit_cuda(&tape, block);
    at(&cuda, "__global__ void kernel_ops_all(");
    at(&cuda, "blockIdx.x * blockDim.x + threadIdx.x");
    at(&cuda, "if (ix >= nx");
    assert!(!cuda.contains("for ("), "one thread per cell:\n{cuda}");
    let linear = ThreadMapping::Linear1D { threads: 128 };
    at(&emit_cuda(&tape, linear), "const long tid");
    // Exact mode is plain math; approx mode is CUDA's intrinsics, and only CUDA's.
    assert!(!cuda.contains("__frsqrt_rn") && cuda.contains("1.0 / sqrt("));
    let fast = all_ops_tape(true);
    let cuda = emit_cuda(&fast, linear);
    for intrinsic in ["__frsqrt_rn", "__fsqrt_rn", "__fdividef"] {
        at(&cuda, intrinsic);
        assert!(!emit_c(&fast).contains(intrinsic));
    }
    at(&cuda, "__threadfence();");
}

#[test]
fn intrinsics_target_hoists_broadcasts_and_tears_down_every_store() {
    let tape = all_ops_tape(true);
    let stores = tape.stores().count();
    let avx512 = emit_c_simd(&tape, SimdIsa::Avx512);
    for needle in [
        "__m512d",
        "_mm512_add_pd(",
        "_mm512_mask_blend_pd(",
        "_mm512_rsqrt14_pd(",
        "_mm512_rcp14_pd(",
        "ix += 8",
        // ±x neighbours unaligned, the centre aligned.
        "_mm512_loadu_pd(&f_ops_src",
        "_mm512_load_pd(&f_ops_src",
        "static inline __m512d pf_philox_pm1_vec(",
    ] {
        at(&avx512, needle);
    }
    assert!(!emit_c_simd(&all_ops_tape(false), SimdIsa::Avx512).contains("14_pd"));
    let avx2 = emit_c_simd(&tape, SimdIsa::Avx2);
    for needle in ["__m256d", "ix += 4", "_mm256_blendv_pd("] {
        at(&avx2, needle);
    }
    // Hoisted sections are scalar C above the strip loop, broadcast on use.
    let strip = at(&avx512, "for (; ix + 8 <= nx; ix += 8) {");
    assert!(at(&avx512, "p_ops_a") < strip && at(&avx512, "origin_y + iy") < strip);
    let hoisted = tape.level_sections()[2];
    at(&avx512, &format!("_mm512_set1_pd(r{})", hoisted - 1));
    assert!(!avx512.contains(&format!("const __m512d v{} ", hoisted - 1)));
    // The tear-down loop is the scalar per-cell body: it finishes the row
    // the strips left, one scalar store per tape store.
    let teardown = at(&avx512, "for (; ix < nx; ++ix) {");
    assert!(strip < teardown);
    let (vector, scalar) = (&avx512[strip..teardown], &avx512[teardown..]);
    assert_eq!(vector.matches("_mm512_store_pd(&f_ops_dst").count(), stores);
    assert_eq!(scalar.matches("f_ops_dst[").count(), stores, "{scalar}");
    assert!(!scalar.contains("_mm512_"), "{scalar}");
    // Loops follow the tape's order.
    let mut by_y = tape.clone();
    apply_loop_order(&mut by_y, [1, 2, 0]);
    let src = emit_c_simd(&by_y, SimdIsa::Avx512);
    assert!(at(&src, "for (long iy") < at(&src, "for (long iz"), "{src}");
}
