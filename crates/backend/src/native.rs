//! Native code generation backend: the paper's actual modus operandi.
//!
//! The interpreters in `exec.rs`/`vector.rs` execute the tape one dispatch
//! per instruction; the paper's pipeline instead *generates* source,
//! compiles it, and runs the machine code. This module closes that loop
//! inside the reproduction: each verified tape is emitted as a
//! self-contained Rust source file (the scalar Rust target of the one
//! loop-nest lowering in [`crate::lower`]), compiled to a cdylib with the
//! in-container `rustc`, loaded with `dlopen`, and dispatched through a
//! typed `extern "C"` ABI. `pf_kernel` is the plain loop nest over the box
//! it is handed; which box, on which thread, is [`crate::Launch`]'s business.
//!
//! Bitwise identity with the interpreters is a hard contract
//! (`tests/native_equivalence.rs`): the generated source performs exactly
//! the interpreter's f64 operation sequence per cell — constants are
//! reproduced via `f64::from_bits`, the Philox 4x32-10 generator is inlined
//! textually (integer ops are exact), and `rustc` contracts nothing
//! without fast-math flags. Hoisted sections evaluate with not-yet-entered
//! loop indices pinned to 0, exactly like the interpreters' `Cursor`.
//!
//! ## Caching
//!
//! The generated source depends only on the tape, so compiled artifacts
//! are keyed by [`Tape::structural_hash`] alone — geometry (strides, base
//! offsets, region bounds) enters through the runtime argument pack, which
//! is why the ABI is stride-based rather than shape-templated. Artifacts
//! live in `PF_NATIVE_CACHE_DIR` (default: `<tmp>/pf-native-cache`) as
//! `pf_<hash>.so` next to their source, installed by atomic rename so
//! concurrent processes race benignly. A loaded artifact must export a
//! `pf_meta` symbol returning the FNV-1a fingerprint of the source this
//! emitter would generate — a stale artifact (older emitter, wrong tape)
//! fails the check and is recompiled; a corrupt one fails `dlopen` and is
//! recompiled too. In-process, function pointers are cached in a global
//! map for the process lifetime (handles are never `dlclose`d); the map is
//! consulted once per bind ([`crate::Launch`] keeps the pointer), not per
//! launch.
//!
//! Counters (per bind): `exec.native.mem_hit` (in-process reuse),
//! `exec.native.compile_hit` (valid disk artifact loaded),
//! `exec.native.compile_miss` (rustc invoked), `exec.native.compile_fail`
//! (binds that could not obtain a native kernel), `exec.native.stale`
//! (disk artifact rejected and replaced).

use crate::exec::{ExecError, RunCtx};
use crate::lower::{indent, loop_pos, lower_nest, Inner, Target};
use pf_grid::IterRegion;
use pf_ir::interp::StoreKey;
use pf_ir::{BinOp, Tape, TapeOp, UnOp, VReg};
use pf_symbolic::CmpOp;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::os::raw::{c_char, c_int, c_void};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

// Raw glibc dynamic-loader bindings — no crates, links against libc which
// is already in every Rust binary on this platform.
extern "C" {
    fn dlopen(filename: *const c_char, flag: c_int) -> *mut c_void;
    fn dlsym(handle: *mut c_void, symbol: *const c_char) -> *mut c_void;
    fn dlerror() -> *mut c_char;
}

const RTLD_NOW: c_int = 2;

/// Bumped whenever the ABI below changes shape; folded into the source
/// fingerprint so old artifacts self-invalidate.
const ABI_TAG: &str = "pf-native-abi/2";

/// One field argument: raw data pointer plus the linear offset of cell
/// (comp 0, 0,0,0) and the [comp, x, y, z] strides. Geometry travels here,
/// at call time — the compiled code is shape-agnostic.
#[repr(C)]
pub(crate) struct NativeField {
    pub ptr: *mut f64,
    pub base: i64,
    pub stride: [i64; 4],
}

// SAFETY: the pointer is dereferenced by generated code only, which reads
// through it, or — a written field — stores to the slab its thread was
// handed; slabs are disjoint by the `NonCentreStore` gate at bind.
unsafe impl Sync for NativeField {}

/// The generated kernel entry point. Returns 0 on success; nonzero codes
/// are ABI mismatches detected before any store is executed.
pub(crate) type PfKernelFn = unsafe extern "C" fn(
    fields: *const NativeField,
    n_fields: u64,
    params: *const f64,
    n_params: u64,
    lo: *const u64,
    hi: *const u64,
    origin: *const i64,
    dx: *const f64,
    time: f64,
    timestep: u64,
    seed: u32,
) -> i32;

enum CacheEntry {
    Ready(PfKernelFn),
    /// Negative cache: rustc already failed for this tape under this
    /// compiler path. Re-keyed on the rustc path so tests (or operators)
    /// can repair `PF_NATIVE_RUSTC` without restarting the process.
    Failed {
        rustc: String,
        detail: String,
    },
}

// SAFETY: PfKernelFn is a plain code pointer into a never-unloaded dylib.
unsafe impl Send for CacheEntry {}

fn cache() -> &'static Mutex<HashMap<u64, CacheEntry>> {
    static CACHE: OnceLock<Mutex<HashMap<u64, CacheEntry>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The compiler used for kernel cdylibs (`PF_NATIVE_RUSTC` override; the
/// tests point it at a nonexistent binary to force the fallback path).
fn rustc_path() -> String {
    std::env::var("PF_NATIVE_RUSTC").unwrap_or_else(|_| "rustc".to_string())
}

/// On-disk artifact directory (`PF_NATIVE_CACHE_DIR` override — the tests
/// use per-test temp dirs so parallel runs never race on artifacts).
pub fn native_cache_dir() -> PathBuf {
    std::env::var_os("PF_NATIVE_CACHE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("pf-native-cache"))
}

fn bump(name: &str) {
    if pf_trace::enabled() {
        pf_trace::counter(name).incr(1);
    }
}

/// FNV-1a 64 — tiny, dependency-free, stable across processes (unlike
/// `DefaultHasher` it is specified, so it can live inside the artifact).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint of the source this emitter renders for `tape` — the value
/// the artifact's `pf_meta` export must return to be accepted.
pub fn source_fingerprint(tape: &Tape) -> u64 {
    fnv1a(emit_body(tape).as_bytes())
}

/// The complete generated source for `tape` (body + meta export).
pub fn emit_rust(tape: &Tape) -> String {
    let body = emit_body(tape);
    let meta = fnv1a(body.as_bytes());
    format!("{body}\n#[no_mangle]\npub extern \"C\" fn pf_meta() -> u64 {{ 0x{meta:016x}u64 }}\n")
}

/// Loop-position index tokens: dimension `d`'s index variable once `depth`
/// loops are open, or a literal 0 for loops not yet entered.
fn idx_token(order: [usize; 3], depth: usize, d: usize) -> &'static str {
    let pos = loop_pos(order, d);
    if pos < depth {
        ["i0", "i1", "i2"][pos]
    } else {
        "0"
    }
}

/// The scalar Rust target: what [`ExecMode::Native`](crate::ExecMode)
/// compiles. Its output is pinned byte for byte (`tests/op_table.rs`):
/// artifact caches key on it.
struct RustTarget<'a>(&'a Tape);

impl RustTarget<'_> {
    /// `*f.offset(base + comp·s[0] + Σ (idx+off)·s[d+1])` as source.
    fn access(&self, slot: u16, comp: u16, off: [i16; 3], depth: usize) -> String {
        let mut s = format!("fb{slot}");
        if comp != 0 {
            let _ = write!(s, " + {comp} * fs{slot}[0]");
        }
        for (d, &o) in off.iter().enumerate() {
            let tok = idx_token(self.0.loop_order, depth, d);
            let idx = if tok == "0" {
                "0i64".to_string()
            } else {
                format!("{tok} as i64")
            };
            match o {
                0 => {
                    let _ = write!(s, " + ({idx}) * fs{slot}[{}]", d + 1);
                }
                o => {
                    let _ = write!(s, " + ({idx} + ({o})) * fs{slot}[{}]", d + 1);
                }
            }
        }
        format!("*f{slot}.offset(({s}) as isize)")
    }
}

impl Target for RustTarget<'_> {
    /// Philox + approx-math preamble, the ABI struct, and the head of the
    /// `pf_kernel` entry point: ABI checks, then the argument pack unpacked
    /// into the names the nest uses.
    fn begin(&self) -> String {
        let tape = self.0;
        let n_fields = tape.fields.len();
        let n_params = tape.params.len();
        let mut s = String::with_capacity(8192);
        let _ = writeln!(
            s,
            "// generated by pf-backend native — kernel `{}`",
            tape.name
        );
        let _ = writeln!(
            s,
            "// {ABI_TAG}; structural_hash 0x{:016x}",
            tape.structural_hash()
        );
        let _ = writeln!(
            s,
            "#![allow(unused_variables, unused_parens, unused_mut, dead_code, unused_unsafe)]\n"
        );
        let _ = writeln!(
            s,
            "#[repr(C)]\npub struct PfField {{ pub ptr: *mut f64, pub base: i64, pub stride: [i64; 4] }}\n"
        );
        s.push_str(PREAMBLE);
        let _ = writeln!(
            s,
            "#[no_mangle]\npub unsafe extern \"C\" fn pf_kernel(\n    \
             fields: *const PfField, n_fields: u64,\n    \
             params: *const f64, n_params: u64,\n    \
             lo: *const u64, hi: *const u64,\n    \
             origin: *const i64, dx: *const f64,\n    \
             time: f64, timestep: u64, seed: u32,\n) -> i32 {{\n    \
             if n_fields != {n_fields} {{ return 1; }}\n    \
             if n_params != {n_params} {{ return 2; }}\n    \
             let fields: &[PfField; {n_fields}] = &*(fields as *const [PfField; {n_fields}]);"
        );
        if n_params > 0 {
            let _ = writeln!(
                s,
                "    let params: &[f64; {n_params}] = &*(params as *const [f64; {n_params}]);"
            );
        } else {
            let _ = writeln!(s, "    let params: &[f64; 0] = &[];");
        }
        let _ = writeln!(
            s,
            "    let lo = [*lo.add(0) as usize, *lo.add(1) as usize, *lo.add(2) as usize];\n    \
             let hi = [*hi.add(0) as usize, *hi.add(1) as usize, *hi.add(2) as usize];\n    \
             let origin = [*origin.add(0), *origin.add(1), *origin.add(2)];\n    \
             let dx = [*dx.add(0), *dx.add(1), *dx.add(2)];"
        );
        for f in 0..n_fields {
            let _ = writeln!(
                s,
                "    let f{f} = fields[{f}].ptr;\n    let fb{f} = fields[{f}].base;\n    let fs{f} = fields[{f}].stride;"
            );
        }
        s
    }

    fn open(&self, pos: usize, _: Inner) -> String {
        format!(
            "{}for i{pos} in lo[{1}]..hi[{1}] {{\n",
            indent(pos),
            self.0.loop_order[pos]
        )
    }

    fn def(&self, i: usize, depth: usize, rhs: &str) -> String {
        format!("{}let r{i}: f64 = {rhs};\n", indent(depth))
    }

    fn store(&self, i: usize, depth: usize, (field, comp, off): StoreKey, val: VReg) -> String {
        // The interpreters discard stores in the launch-invariant section
        // (they never occur in practice — the levels pass pins stores
        // per-cell). Either way the store's register carries the stored
        // value, exactly like `regs[i] = v`.
        let value = self.def(i, depth, &self.arg(val));
        if depth == 0 {
            return value;
        }
        let access = self.access(field, comp, off, depth);
        format!("{}{access} = r{};\n{value}", indent(depth), val.0)
    }

    fn fence(&self, i: usize, depth: usize) -> String {
        self.def(i, depth, "0.0f64")
    }

    fn leaf(&self, op: &TapeOp, depth: usize) -> String {
        let order = self.0.loop_order;
        let coord_idx = |d: u8| {
            let tok = idx_token(order, depth, d as usize);
            if tok == "0" {
                "0.0f64".to_string()
            } else {
                format!("{tok} as f64")
            }
        };
        match *op {
            TapeOp::Const(c) => format!(
                "f64::from_bits(0x{:016x}u64) /* {:?} */",
                c.0.to_bits(),
                c.0
            ),
            TapeOp::Param(p) => format!("params[{p}]"),
            TapeOp::Load { field, comp, off } => self.access(field, comp, off, depth),
            TapeOp::Coord(d) => format!(
                "(origin[{0}] as f64 + {1} + 0.5) * dx[{0}]",
                d as usize,
                coord_idx(d)
            ),
            TapeOp::Time => "time".into(),
            TapeOp::CellIdx(d) => format!("origin[{0}] as f64 + {1}", d as usize, coord_idx(d)),
            TapeOp::Rand(lane) => {
                let cell = |d: usize| {
                    let tok = idx_token(order, depth, d);
                    if tok == "0" {
                        format!("origin[{d}]")
                    } else {
                        format!("origin[{d}] + {tok} as i64")
                    }
                };
                format!(
                    "pf_rand_pm1([{}, {}, {}], timestep, seed, {lane})",
                    cell(0),
                    cell(1),
                    cell(2)
                )
            }
            _ => unreachable!("{op:?} is not a leaf"),
        }
    }

    fn un(&self, op: UnOp, a: &str) -> String {
        let ap = self.0.approx;
        match op {
            UnOp::Neg => format!("-{a}"),
            UnOp::Sqrt if ap.fast_sqrt => format!("pf_f32_sqrt({a})"),
            UnOp::Sqrt => format!("{a}.sqrt()"),
            UnOp::RSqrt if ap.fast_rsqrt => format!("pf_f32_rsqrt({a})"),
            UnOp::RSqrt => format!("1.0 / {a}.sqrt()"),
            UnOp::Abs => format!("{a}.abs()"),
            UnOp::Exp => format!("{a}.exp()"),
            UnOp::Ln => format!("{a}.ln()"),
            UnOp::Sin => format!("{a}.sin()"),
            UnOp::Cos => format!("{a}.cos()"),
            UnOp::Tanh => format!("{a}.tanh()"),
            UnOp::Sign => {
                format!("if {a} > 0.0 {{ 1.0 }} else if {a} < 0.0 {{ -1.0 }} else {{ 0.0 }}")
            }
            UnOp::Floor => format!("{a}.floor()"),
        }
    }

    fn bin(&self, op: BinOp, a: &str, b: &str) -> String {
        match op {
            BinOp::Add => format!("{a} + {b}"),
            BinOp::Sub => format!("{a} - {b}"),
            BinOp::Mul => format!("{a} * {b}"),
            BinOp::Div if self.0.approx.fast_div => format!("pf_f32_div({a}, {b})"),
            BinOp::Div => format!("{a} / {b}"),
            BinOp::Min => format!("{a}.min({b})"),
            BinOp::Max => format!("{a}.max({b})"),
            BinOp::Powf => format!("{a}.powf({b})"),
        }
    }

    fn select(&self, op: CmpOp, l: &str, r: &str, t: &str, f: &str) -> String {
        format!("if {l} {} {r} {{ {t} }} else {{ {f} }}", op.symbol())
    }

    fn end(&self) -> String {
        "    0\n}\n".into()
    }
}

/// Philox 4x32-10, textually identical to pf-rng (integer ops: exact), and
/// the f32 round-trips of `pf_ir::ApproxOptions`.
const PREAMBLE: &str = "const PHILOX_M0: u32 = 0xD251_1F53;\n\
     const PHILOX_M1: u32 = 0xCD9E_8D57;\n\
     const PHILOX_W0: u32 = 0x9E37_79B9;\n\
     const PHILOX_W1: u32 = 0xBB67_AE85;\n\
     #[inline(always)]\n\
     fn mulhilo(a: u32, b: u32) -> (u32, u32) {\n\
         let p = (a as u64) * (b as u64);\n\
         ((p >> 32) as u32, p as u32)\n\
     }\n\
     #[inline(always)]\n\
     fn philox_round(ctr: [u32; 4], key: [u32; 2]) -> [u32; 4] {\n\
         let (hi0, lo0) = mulhilo(PHILOX_M0, ctr[0]);\n\
         let (hi1, lo1) = mulhilo(PHILOX_M1, ctr[2]);\n\
         [hi1 ^ ctr[1] ^ key[0], lo1, hi0 ^ ctr[3] ^ key[1], lo0]\n\
     }\n\
     #[inline(always)]\n\
     fn philox4x32(mut ctr: [u32; 4], mut key: [u32; 2]) -> [u32; 4] {\n\
         for r in 0..10u32 {\n\
             if r > 0 {\n\
                 key = [key[0].wrapping_add(PHILOX_W0), key[1].wrapping_add(PHILOX_W1)];\n\
             }\n\
             ctr = philox_round(ctr, key);\n\
         }\n\
         ctr\n\
     }\n\
     #[inline(always)]\n\
     fn pf_rand_pm1(cell: [i64; 3], timestep: u64, seed: u32, lane: u32) -> f64 {\n\
         let ctr = [cell[0] as u32, cell[1] as u32, cell[2] as u32, timestep as u32];\n\
         let hi_mix = ((cell[0] as u64 >> 32) as u32)\n\
             ^ ((cell[1] as u64 >> 32) as u32).rotate_left(11)\n\
             ^ ((cell[2] as u64 >> 32) as u32).rotate_left(22)\n\
             ^ ((timestep >> 32) as u32).rotate_left(7);\n\
         let r = philox4x32(ctr, [seed ^ hi_mix, lane]);\n\
         let bits = ((r[0] as u64) << 32) | r[1] as u64;\n\
         2.0 * ((bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)) - 1.0\n\
     }\n\
     #[inline(always)]\n\
     fn pf_f32_div(a: f64, b: f64) -> f64 { (a as f32 / b as f32) as f64 }\n\
     #[inline(always)]\n\
     fn pf_f32_sqrt(a: f64) -> f64 { (a as f32).sqrt() as f64 }\n\
     #[inline(always)]\n\
     fn pf_f32_rsqrt(a: f64) -> f64 { (1.0 / (a as f32).sqrt()) as f64 }\n\n";

/// Generated source body: everything but the `pf_meta` export.
fn emit_body(tape: &Tape) -> String {
    lower_nest(tape, &RustTarget(tape), None)
}

/// Remove a file when the guard drops (the transient load link).
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn last_dl_error() -> String {
    unsafe {
        let e = dlerror();
        if e.is_null() {
            "unknown dlopen error".into()
        } else {
            std::ffi::CStr::from_ptr(e).to_string_lossy().into_owned()
        }
    }
}

/// dlopen `path` and resolve (`pf_kernel`, `pf_meta()`); errors are
/// descriptive strings. The handle is intentionally leaked: kernel code
/// must stay mapped for the process lifetime (function pointers escape
/// into the cache).
///
/// The artifact is opened through a process-unique hard link that is
/// unlinked immediately after (the mapping survives). glibc deduplicates
/// `dlopen` by *pathname* before looking at the file, so reopening
/// `pf_<hash>.so` after a recompile+rename would silently return the old,
/// stale mapping; a unique name defeats that, while glibc's secondary
/// dev/inode check still dedupes genuinely identical artifacts.
fn load_artifact(path: &Path) -> Result<(PfKernelFn, u64), String> {
    use std::os::unix::ffi::OsStrExt;
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let link = path.with_extension(format!(
        "open.{}.{}.so",
        std::process::id(),
        SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    std::fs::hard_link(path, &link)
        .or_else(|_| std::fs::copy(path, &link).map(|_| ()))
        .map_err(|e| format!("link artifact for load: {e}"))?;
    let c = std::ffi::CString::new(link.as_os_str().as_bytes())
        .map_err(|_| "artifact path contains NUL".to_string())?;
    let _unlink = RemoveOnDrop(link);
    unsafe {
        dlerror(); // clear any stale error
        let h = dlopen(c.as_ptr(), RTLD_NOW);
        if h.is_null() {
            return Err(format!("dlopen failed: {}", last_dl_error()));
        }
        let meta_sym = dlsym(h, c"pf_meta".as_ptr());
        if meta_sym.is_null() {
            return Err("artifact exports no pf_meta symbol".into());
        }
        let kern_sym = dlsym(h, c"pf_kernel".as_ptr());
        if kern_sym.is_null() {
            return Err("artifact exports no pf_kernel symbol".into());
        }
        let meta_fn: extern "C" fn() -> u64 = std::mem::transmute(meta_sym);
        let func: PfKernelFn = std::mem::transmute(kern_sym);
        Ok((func, meta_fn()))
    }
}

/// Compile `src` to a cdylib at `dst` with the configured rustc, via a
/// process-unique temp name + atomic rename.
fn compile(src_path: &Path, dst: &Path, rustc: &str) -> Result<(), String> {
    let tmp = dst.with_extension(format!("tmp.{}.so", std::process::id()));
    let out = std::process::Command::new(rustc)
        .arg("--edition")
        .arg("2021")
        .arg("-O")
        .arg("--crate-type")
        .arg("cdylib")
        .arg("-o")
        .arg(&tmp)
        .arg(src_path)
        .output()
        .map_err(|e| format!("failed to run rustc '{rustc}': {e}"))?;
    if !out.status.success() {
        let _ = std::fs::remove_file(&tmp);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let excerpt: String = stderr.chars().take(600).collect();
        return Err(format!("rustc failed ({}): {excerpt}", out.status));
    }
    std::fs::rename(&tmp, dst).map_err(|e| format!("install artifact: {e}"))?;
    Ok(())
}

/// Resolve the compiled kernel for `tape`: in-memory cache, then the disk
/// artifact (validated against the source fingerprint), then a fresh
/// compile. Failures are negatively cached per rustc path and surface as
/// [`ExecError::NativeCompile`].
pub(crate) fn get_or_load(tape: &Tape) -> Result<PfKernelFn, ExecError> {
    let hash = tape.structural_hash();
    let mut map = cache().lock().unwrap_or_else(|p| p.into_inner());
    let rustc = rustc_path();
    match map.get(&hash) {
        Some(CacheEntry::Ready(func)) => {
            bump("exec.native.mem_hit");
            return Ok(*func);
        }
        Some(CacheEntry::Failed { rustc: r, detail }) if *r == rustc => {
            bump("exec.native.compile_fail");
            return Err(ExecError::NativeCompile {
                kernel: tape.name.clone(),
                detail: detail.clone(),
            });
        }
        _ => {}
    }

    let fail = |map: &mut HashMap<u64, CacheEntry>, detail: String| {
        bump("exec.native.compile_fail");
        map.insert(
            hash,
            CacheEntry::Failed {
                rustc: rustc.clone(),
                detail: detail.clone(),
            },
        );
        Err(ExecError::NativeCompile {
            kernel: tape.name.clone(),
            detail,
        })
    };

    let dir = native_cache_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        return fail(&mut map, format!("create cache dir {}: {e}", dir.display()));
    }
    let so_path = dir.join(format!("pf_{hash:016x}.so"));
    let src = emit_rust(tape);
    let want_meta = source_fingerprint(tape);

    // Disk hit: accept only an artifact whose pf_meta matches the source
    // this emitter generates (stale/corrupt artifacts are replaced).
    if so_path.exists() {
        match load_artifact(&so_path) {
            Ok((func, meta)) if meta == want_meta => {
                bump("exec.native.compile_hit");
                map.insert(hash, CacheEntry::Ready(func));
                return Ok(func);
            }
            Ok(_) | Err(_) => {
                bump("exec.native.stale");
                let _ = std::fs::remove_file(&so_path);
            }
        }
    }

    // Compile. Source is written next to the artifact for inspection.
    let src_path = dir.join(format!("pf_{hash:016x}.rs"));
    if let Err(e) = std::fs::write(&src_path, &src) {
        return fail(
            &mut map,
            format!("write source {}: {e}", src_path.display()),
        );
    }
    let _span = pf_trace::span_lazy(|| format!("exec.native.compile.{}", tape.name));
    if let Err(e) = compile(&src_path, &so_path, &rustc) {
        return fail(&mut map, e);
    }
    match load_artifact(&so_path) {
        Ok((func, meta)) if meta == want_meta => {
            bump("exec.native.compile_miss");
            map.insert(hash, CacheEntry::Ready(func));
            Ok(func)
        }
        Ok((_, meta)) => fail(
            &mut map,
            format!("fresh artifact meta 0x{meta:016x} != expected 0x{want_meta:016x}"),
        ),
        Err(e) => fail(&mut map, format!("load fresh artifact: {e}")),
    }
}

/// Run the compiled kernel over `region` on the calling thread. A nonzero
/// return code is an ABI mismatch detected before any store.
pub(crate) fn call(
    func: PfKernelFn,
    fields: &[NativeField],
    params: &[f64],
    ctx: &RunCtx,
    region: IterRegion,
) -> Result<(), i32> {
    let [lo, hi] = [region.lo, region.hi].map(|b| b.map(|v| v as u64));
    // SAFETY: `func` was resolved from an artifact whose `pf_meta` matched
    // this emitter's source for the bound tape, so it has the `PfKernelFn`
    // signature and checks the two counts before it dereferences anything;
    // `fields` point into the bound arrays, whose geometry the halo gate
    // proved every access of `region` to fit.
    let rc = unsafe {
        func(
            fields.as_ptr(),
            fields.len() as u64,
            params.as_ptr(),
            params.len() as u64,
            lo.as_ptr(),
            hi.as_ptr(),
            ctx.origin.as_ptr(),
            ctx.dx.as_ptr(),
            ctx.time,
            ctx.timestep,
            ctx.seed,
        )
    };
    match rc {
        0 => Ok(()),
        rc => Err(rc),
    }
}

/// Drop every in-process cache entry — resolved function pointers and
/// negative (compile-failed) entries alike. Disk artifacts are untouched;
/// the next bind re-validates them against the emitter fingerprint.
/// Already-mapped kernel code is never unloaded, so function pointers
/// handed out earlier stay valid. Use after repointing
/// `PF_NATIVE_CACHE_DIR`/`PF_NATIVE_RUSTC`, or in tests that poison disk
/// artifacts deliberately.
pub fn clear_memory_cache() {
    cache().lock().unwrap_or_else(|p| p.into_inner()).clear();
}

/// Can this sandbox produce and load cdylibs at all? Probed once per
/// process with a trivial source — CI uses this to skip the native smoke
/// stage loudly instead of failing it.
pub fn native_available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        let dir = native_cache_dir();
        if std::fs::create_dir_all(&dir).is_err() {
            return false;
        }
        let src_path = dir.join(format!("pf_selftest_{}.rs", std::process::id()));
        let so_path = dir.join(format!("pf_selftest_{}.so", std::process::id()));
        let src = "#[no_mangle]\npub extern \"C\" fn pf_selftest() -> u64 { 42 }\n";
        if std::fs::write(&src_path, src).is_err() {
            return false;
        }
        let ok = compile(&src_path, &so_path, &rustc_path()).is_ok() && {
            use std::os::unix::ffi::OsStrExt;
            let c = std::ffi::CString::new(so_path.as_os_str().as_bytes()).unwrap();
            unsafe { !dlopen(c.as_ptr(), RTLD_NOW).is_null() }
        };
        let _ = std::fs::remove_file(&src_path);
        let _ = std::fs::remove_file(&so_path);
        ok
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_ir::{generate, GenOptions};
    use pf_stencil::{Assignment, Discretization, StencilKernel};
    use pf_symbolic::{Access, Expr, Field};

    /// Native tests mutate PF_NATIVE_* env vars and the global caches;
    /// serialize them.
    pub(crate) fn native_test_lock() -> &'static Mutex<()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
    }

    /// A unique scratch cache dir, removed on drop (flake guard: parallel
    /// `cargo test` processes never share artifact paths).
    pub(crate) struct ScratchCache(pub PathBuf);

    impl ScratchCache {
        pub(crate) fn new(tag: &str) -> Self {
            static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "pf-native-test-{tag}-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).expect("create scratch cache dir");
            std::env::set_var("PF_NATIVE_CACHE_DIR", &dir);
            ScratchCache(dir)
        }
    }

    impl Drop for ScratchCache {
        fn drop(&mut self) {
            std::env::remove_var("PF_NATIVE_CACHE_DIR");
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn diffusion_tape(name: &str, src: Field, dst: Field) -> Tape {
        let disc = Discretization::isotropic(2, 1.0);
        let u = Expr::access(Access::center(src, 0));
        let rhs: Expr = (0..2)
            .map(|d| Expr::d(Expr::num(1.0) * Expr::d(u.clone(), d), d))
            .sum();
        let update = disc.explicit_euler(Access::center(src, 0), &rhs, 0.1) + Expr::rand(0) * 1e-3;
        let k = StencilKernel::new(
            name,
            vec![Assignment::store(Access::center(dst, 0), update)],
        );
        generate(&k, &GenOptions::default())
    }

    #[test]
    fn compile_cache_hits_memory_then_disk() {
        let _g = native_test_lock().lock().unwrap_or_else(|p| p.into_inner());
        let _scratch = ScratchCache::new("cache");
        let src = Field::new("nat_cc_src", 1, 2);
        let dst = Field::new("nat_cc_dst", 1, 2);
        let tape = diffusion_tape("nat_cache", src, dst);
        let misses = || pf_trace::counter("exec.native.compile_miss").value();
        let mem_hits = || pf_trace::counter("exec.native.mem_hit").value();
        let disk_hits = || pf_trace::counter("exec.native.compile_hit").value();
        let (m0, h0, d0) = (misses(), mem_hits(), disk_hits());
        get_or_load(&tape).expect("first load compiles");
        get_or_load(&tape).expect("second load hits memory");
        if pf_trace::enabled() {
            assert_eq!(misses() - m0, 1, "one rustc invocation");
            assert_eq!(mem_hits() - h0, 1, "second load from memory");
        }
        // Drop the in-memory entry: the next load must come from disk.
        cache()
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .remove(&tape.structural_hash());
        get_or_load(&tape).expect("third load hits the disk artifact");
        if pf_trace::enabled() {
            assert_eq!(disk_hits() - d0, 1, "disk artifact accepted");
            assert_eq!(misses() - m0, 1, "no recompile");
        }
    }

    #[test]
    fn corrupt_and_stale_artifacts_are_replaced() {
        let _g = native_test_lock().lock().unwrap_or_else(|p| p.into_inner());
        let scratch = ScratchCache::new("poison");
        let src = Field::new("nat_po_src", 1, 2);
        let dst = Field::new("nat_po_dst", 1, 2);
        let tape = diffusion_tape("nat_poison", src, dst);
        let so_path = scratch
            .0
            .join(format!("pf_{:016x}.so", tape.structural_hash()));

        // Corrupt: garbage bytes where the artifact should be.
        std::fs::write(&so_path, b"not an ELF file").unwrap();
        let stale = || pf_trace::counter("exec.native.stale").value();
        let s0 = stale();
        get_or_load(&tape).expect("corrupt artifact must be recompiled");
        if pf_trace::enabled() {
            assert_eq!(stale() - s0, 1, "corrupt artifact rejected");
        }

        // Stale: a *valid* cdylib with the wrong fingerprint (another
        // kernel's artifact copied over this path).
        let other = diffusion_tape("nat_poison_other", src, dst);
        get_or_load(&other).expect("other kernel compiles");
        cache().lock().unwrap_or_else(|p| p.into_inner()).clear();
        let other_so = scratch
            .0
            .join(format!("pf_{:016x}.so", other.structural_hash()));
        // Install the wrong artifact the way a real (older-emitter) process
        // would: copy + atomic rename. Overwriting the mapped file in place
        // would corrupt the live mapping instead of testing staleness.
        let tmp = scratch.0.join("stale_copy.tmp");
        std::fs::copy(&other_so, &tmp).unwrap();
        std::fs::rename(&tmp, &so_path).unwrap();
        let s1 = stale();
        get_or_load(&tape).expect("stale artifact must be recompiled");
        if pf_trace::enabled() {
            assert_eq!(stale() - s1, 1, "stale artifact rejected via pf_meta");
        }
        // And the replacement actually runs this tape's code.
        cache().lock().unwrap_or_else(|p| p.into_inner()).clear();
        get_or_load(&tape).expect("replaced artifact loads");
    }

    #[test]
    fn forced_rustc_failure_is_a_typed_error_and_negatively_cached() {
        let _g = native_test_lock().lock().unwrap_or_else(|p| p.into_inner());
        let _scratch = ScratchCache::new("fail");
        std::env::set_var("PF_NATIVE_RUSTC", "/nonexistent/pf-rustc-forced-failure");
        let src = Field::new("nat_ff_src", 1, 2);
        let dst = Field::new("nat_ff_dst", 1, 2);
        let tape = diffusion_tape("nat_force_fail", src, dst);
        let fails = || pf_trace::counter("exec.native.compile_fail").value();
        let f0 = fails();
        let err = get_or_load(&tape).expect_err("rustc cannot exist");
        match &err {
            ExecError::NativeCompile { kernel, detail } => {
                assert_eq!(kernel, "nat_force_fail");
                assert!(detail.contains("pf-rustc-forced-failure"), "{detail}");
            }
            other => panic!("expected NativeCompile, got {other:?}"),
        }
        let _ = get_or_load(&tape).expect_err("negative cache holds");
        if pf_trace::enabled() {
            assert!(fails() - f0 >= 2, "every failed bind counts");
        }
        // Repairing the compiler path retries the compile.
        std::env::remove_var("PF_NATIVE_RUSTC");
        get_or_load(&tape).expect("compile succeeds after repair");
    }

    #[test]
    fn availability_probe_is_positive_in_this_container() {
        let _g = native_test_lock().lock().unwrap_or_else(|p| p.into_inner());
        assert!(native_available(), "rustc must produce cdylibs here");
    }
}
