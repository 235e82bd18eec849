//! The native kernel executor.
//!
//! Runs a compiled tape over a block: the moral equivalent of the paper's
//! generated C/OpenMP code. A tape is bound to its storage once
//! ([`Launch::bind`]: loads and stores resolved to (array, linear offset)
//! pairs, every launch gate proved, the engine chosen) and then launched
//! many times ([`Launch::run`]); the spatial loops execute the tape's level
//! sections at the right loop depths (LICM hoisting).
//!
//! The unit of work is an [`IterRegion`], and an engine is "this bound tape
//! over this region on the calling thread": the serial [`Cursor`], the
//! strip-mined one in [`crate::vector`] (the explicitly vectorized kernels
//! of §3.5), or the compiled nest of [`crate::native`]. Threads are this
//! module's alone, as OpenMP is the framework's in the paper: a launch cuts
//! its region into slabs along the outermost loop — a slab is a region, like
//! a frontier shell — and runs them in one fork-join.
//!
//! The only `unsafe` in the whole workspace lives in this crate: the slabs'
//! threads write disjoint parts of the destination arrays through a shared
//! pointer ([`RawSlice`]), and [`crate::native`] calls into generated code.
//! The disjointness invariant — every store hits the centre cell along the
//! outer loop dimension, so two outer indices can never write the same
//! address — is checked at bind, before any memory is touched; violations
//! surface as a typed [`ExecError`] (and [`Launch::bind_or_fall_back`]
//! binds the serial engine, which is never cut, instead of racing).

use crate::native::{NativeField, PfKernelFn};
use crate::store::FieldStore;
use pf_fields::FieldArray;
use pf_grid::IterRegion;
use pf_ir::{Arith, Tape, TapeOp};
use pf_rng::CellRng;
use pf_symbolic::Field;
use std::cell::Cell;

/// Per-launch execution context.
#[derive(Clone, Copy, Debug)]
pub struct RunCtx {
    /// Simulation time at this step.
    pub time: f64,
    /// Time step index (Philox counter component).
    pub timestep: u64,
    /// Grid spacing.
    pub dx: [f64; 3],
    /// Global index of this block's (0,0,0) cell (multi-block runs).
    pub origin: [i64; 3],
    /// RNG seed.
    pub seed: u32,
}

impl Default for RunCtx {
    fn default() -> Self {
        RunCtx {
            time: 0.0,
            timestep: 0,
            dx: [1.0; 3],
            origin: [0; 3],
            seed: 0,
        }
    }
}

/// How to run the spatial loops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    Serial,
    /// Strip-mined batch execution: interpret the tape over x-strips of
    /// [`crate::STRIP_WIDTH`] cells with SoA lane registers. Bitwise
    /// identical to `Serial`.
    Vectorized,
    /// Generated machine code: the tape is emitted as Rust source, compiled
    /// to a cdylib with the in-container `rustc` and dispatched through a
    /// typed C ABI (see [`crate::native`]). Artifacts are cached on disk
    /// keyed by [`Tape::structural_hash`]. Bitwise identical to `Serial`;
    /// compile failures fall back to `Vectorized`
    /// ([`Launch::bind_or_fall_back`]).
    Native,
}

impl ExecMode {
    /// Every engine.
    pub const ALL: [ExecMode; 3] = [ExecMode::Serial, ExecMode::Vectorized, ExecMode::Native];

    /// The engine's name in `PF_EXEC_MODE` / `PF_BENCH_EXEC`, bench
    /// artifacts and reports; [`std::str::FromStr`] is its inverse.
    pub fn name(self) -> &'static str {
        match self {
            ExecMode::Serial => "serial",
            ExecMode::Vectorized => "vectorized",
            ExecMode::Native => "native",
        }
    }
}

impl std::str::FromStr for ExecMode {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, ()> {
        ExecMode::ALL.into_iter().find(|m| m.name() == s).ok_or(())
    }
}

/// Typed bind or launch failure. Detected before any memory is written, so
/// the bound storage is untouched when an error is returned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// Every engine but Serial has its region cut into slabs along the
    /// outer spatial loop; a store at a nonzero offset along that dimension
    /// would let two slabs write the same cell. Run such kernels serially
    /// (or reschedule the store to the centre cell).
    NonCentreStore {
        kernel: String,
        /// The outer loop dimension (`loop_order[0]`).
        dim: usize,
        /// The offending store offset along that dimension.
        offset: i16,
    },
    /// Native execution could not obtain a compiled kernel — `rustc`
    /// failed, the cache directory is unusable, or a freshly built artifact
    /// would not load. Raised at bind.
    NativeCompile { kernel: String, detail: String },
    /// The compiled kernel rejected the launch argument pack (its built-in
    /// field/parameter arity checks run before any store is executed, so
    /// the bound storage holds its pre-launch contents).
    NativeAbi { kernel: String, code: i32 },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::NonCentreStore {
                kernel,
                dim,
                offset,
            } => write!(
                f,
                "kernel '{kernel}' stores at offset {offset} along the outer loop \
                 dimension {dim} — parallel partitions would overlap; run it serially"
            ),
            ExecError::NativeCompile { kernel, detail } => write!(
                f,
                "kernel '{kernel}' could not be compiled to native code: {detail}"
            ),
            ExecError::NativeAbi { kernel, code } => write!(
                f,
                "kernel '{kernel}': compiled artifact rejected the launch \
                 arguments (ABI check {code})"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// A tape instruction with its memory accesses resolved.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Step {
    Op(TapeOp),
    /// Load from read-array `arr` at `cell_base + delta`.
    Load {
        arr: u16,
        delta: isize,
    },
    /// Store to write-array `arr` at `cell_base + delta`.
    Store {
        arr: u16,
        delta: isize,
        val: u32,
    },
}

/// What the two interpreters run: the tape with every access resolved
/// against the bound storage geometry.
pub(crate) struct Plan {
    pub(crate) steps: Vec<Step>,
    /// level boundaries: steps[..sec[0]] = level 0, ..sec[1] = ≤1, etc.
    pub(crate) sec: [usize; 4],
    /// strides (x,y,z) of each read array
    pub(crate) read_strides: Vec<[isize; 3]>,
    pub(crate) read_base: Vec<isize>,
    pub(crate) write_strides: Vec<[isize; 3]>,
    pub(crate) write_base: Vec<isize>,
}

/// Where a field slot's array is during a run: borrowed from the store
/// (`Read(i)` = the i-th read array) or taken out of it (`Write(i)`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Slot {
    Read(usize),
    Write(usize),
}

impl Slot {
    fn is_write(self) -> bool {
        matches!(self, Slot::Write(_))
    }
}

/// The storage geometry of one bound array — everything a bind decision
/// (halo fit, resolved offsets, the native argument pack) is derived from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Geom {
    base: isize,
    strides: [isize; 4],
    shape: [usize; 3],
    ghost: usize,
}

impl Geom {
    fn of(arr: &FieldArray) -> Geom {
        Geom {
            base: arr.index(0, 0, 0, 0) as isize,
            strides: arr.strides(),
            shape: arr.shape(),
            ghost: arr.ghost_layers(),
        }
    }
}

fn resolve(tape: &Tape, geom: &[Geom], slots: &[Slot]) -> Plan {
    let at = |field: u16, comp: u16, off: [i16; 3]| {
        let [sc, sx, sy, sz] = geom[field as usize].strides;
        let delta =
            comp as isize * sc + off[0] as isize * sx + off[1] as isize * sy + off[2] as isize * sz;
        let (Slot::Read(arr) | Slot::Write(arr)) = slots[field as usize];
        (arr as u16, delta)
    };
    let steps = tape
        .instrs
        .iter()
        .map(|op| match *op {
            TapeOp::Load { field, comp, off } => {
                let (arr, delta) = at(field, comp, off);
                Step::Load { arr, delta }
            }
            TapeOp::Store {
                field,
                comp,
                off,
                val,
            } => {
                let (arr, delta) = at(field, comp, off);
                Step::Store {
                    arr,
                    delta,
                    val: val.0,
                }
            }
            other => Step::Op(other),
        })
        .collect();
    let [s0, s1, s2] = tape.level_sections();
    let side = |written: bool| -> (Vec<[isize; 3]>, Vec<isize>) {
        slots
            .iter()
            .zip(geom)
            .filter(|(s, _)| s.is_write() == written)
            .map(|(_, g)| ([g.strides[1], g.strides[2], g.strides[3]], g.base))
            .unzip()
    };
    let (read_strides, read_base) = side(false);
    let (write_strides, write_base) = side(true);
    Plan {
        steps,
        sec: [s0, s1, s2, tape.instrs.len()],
        read_strides,
        read_base,
        write_strides,
        write_base,
    }
}

/// Shared mutable view over a write array for the threads of one launch.
/// Safety rests on the caller guaranteeing disjoint index sets per thread.
#[derive(Clone, Copy)]
pub(crate) struct RawSlice {
    ptr: *mut f64,
    len: usize,
}
unsafe impl Send for RawSlice {}
unsafe impl Sync for RawSlice {}

impl RawSlice {
    fn over(arrays: &mut [FieldArray]) -> Vec<RawSlice> {
        let view = |a: &mut FieldArray| {
            let d = a.data_mut();
            RawSlice {
                ptr: d.as_mut_ptr(),
                len: d.len(),
            }
        };
        arrays.iter_mut().map(view).collect()
    }

    #[inline]
    pub(crate) unsafe fn write(&self, idx: usize, v: f64) {
        debug_assert!(idx < self.len);
        unsafe { *self.ptr.add(idx) = v }
    }

    /// Contiguous unit-stride store of a whole strip.
    #[inline]
    pub(crate) unsafe fn write_strip(&self, idx: usize, src: &[f64]) {
        debug_assert!(idx + src.len() <= self.len);
        unsafe { std::ptr::copy_nonoverlapping(src.as_ptr(), self.ptr.add(idx), src.len()) }
    }
}

/// The extended iteration range of `tape` over a block interior: face
/// kernels sweep `domain + iter_extent` cells.
pub fn extended_range(tape: &Tape, domain: [usize; 3]) -> [usize; 3] {
    [
        domain[0] + tape.iter_extent[0],
        domain[1] + tape.iter_extent[1],
        domain[2] + tape.iter_extent[2],
    ]
}

/// What runs a bound tape.
enum Engine {
    Serial(Plan),
    Vectorized(Plan),
    Native(PfKernelFn),
}

/// A tape bound to its storage: the moral equivalent of the paper's sweep
/// object, constructed once against a block's fields and then merely called
/// every timestep.
///
/// [`Launch::bind`] decides, once, everything that depends only on (tape,
/// bound-array geometry, engine); [`Launch::run`] does what varies from call
/// to call. A launch stays valid while every bound field's array keeps its
/// geometry — swapping two equally shaped arrays (φ_src ↔ φ_dst) is free, any
/// other change rebinds, re-running every gate before a store.
pub struct Launch {
    tape: Tape,
    domain: [usize; 3],
    /// Per field slot: where its array is during a run, and the geometry
    /// it was bound with.
    slots: Vec<Slot>,
    geom: Vec<Geom>,
    engine: Engine,
    /// Non-monotone levels (a GPU-oriented reschedule): every hoisted
    /// section collapsed to per-cell execution.
    licm_disabled: bool,
    /// Trace names, rendered once.
    names: [String; 4],
}

impl Launch {
    /// Bind `tape` to the arrays `store` holds for its fields, to run under
    /// `mode` over a block of `domain` interior cells. The checked entry: a
    /// tape `mode` cannot run is a typed error, not a downgrade.
    ///
    /// Everything a launch must hold before it may store is established
    /// here: no field is both read and written (Jacobi discipline), stores
    /// are centred along the outer loop where it is partitioned, every
    /// access fits the bound arrays' ghost layers and padding (the runtime
    /// completion of pf-analyze's halo pass, under `verify_enabled()` —
    /// generation-time verification cannot know what storage a caller will
    /// bind), and for [`ExecMode::Native`] the compiled kernel is loaded.
    pub fn bind(
        tape: &Tape,
        store: &FieldStore,
        domain: [usize; 3],
        mode: ExecMode,
    ) -> Result<Launch, ExecError> {
        let order = tape.loop_order;
        // The strip engine mines strips along the unit-stride x dimension,
        // which the LICM pass always keeps innermost (`compute_levels`
        // asserts it). Defensively run hand-built tapes that violate this
        // serially.
        let mode = if mode == ExecMode::Vectorized && order[2] != 0 {
            count_serial_fallback(tape);
            ExecMode::Serial
        } else {
            mode
        };

        let n = tape.fields.len();
        let (mut loaded, mut stored) = (vec![false; n], vec![false; n]);
        let mut off_centre = None;
        for op in &tape.instrs {
            match *op {
                TapeOp::Load { field, .. } => loaded[field as usize] = true,
                TapeOp::Store { field, off, .. } => {
                    stored[field as usize] = true;
                    if off[order[0]] != 0 {
                        off_centre.get_or_insert(off[order[0]]);
                    }
                }
                _ => {}
            }
        }
        // Partitioned execution splits the outer spatial loop across
        // threads; a store off-centre along that dimension would let two
        // partitions write the same cell.
        if let (true, Some(offset)) = (mode != ExecMode::Serial, off_centre) {
            return Err(ExecError::NonCentreStore {
                kernel: tape.name.clone(),
                dim: order[0],
                offset,
            });
        }
        let native = match mode {
            ExecMode::Native => Some(crate::native::get_or_load(tape)?),
            _ => None,
        };
        for (slot, f) in tape.fields.iter().enumerate() {
            assert!(
                !(loaded[slot] && stored[slot]),
                "kernel {} reads and writes field {} — Jacobi-style kernels only",
                tape.name,
                f.name()
            );
        }

        let mut next = [0usize; 2];
        let slots: Vec<Slot> = stored
            .iter()
            .map(|&written| {
                let i = next[written as usize];
                next[written as usize] += 1;
                if written {
                    Slot::Write(i)
                } else {
                    Slot::Read(i)
                }
            })
            .collect();
        let geom: Vec<Geom> = tape
            .fields
            .iter()
            .map(|f| Geom::of(store.get(*f)))
            .collect();
        if pf_ir::verify_enabled() {
            let allocs: Vec<pf_analyze::FieldAlloc> = geom
                .iter()
                .map(|g| pf_analyze::FieldAlloc {
                    ghost: g.ghost,
                    pad: [0, 1, 2].map(|d| g.shape[d].saturating_sub(domain[d])),
                })
                .collect();
            let halo = pf_analyze::check_halo(tape, &allocs);
            assert!(
                halo.is_empty(),
                "kernel {} does not fit its bound storage:\n{}",
                tape.name,
                pf_analyze::render(&halo)
            );
        }
        if pf_trace::enabled() {
            pf_trace::counter(&format!("exec.bind.{}", tape.name)).incr(1);
        }
        let engine = match (native, mode) {
            (Some(func), _) => Engine::Native(func),
            (None, ExecMode::Serial) => Engine::Serial(resolve(tape, &geom, &slots)),
            (None, _) => Engine::Vectorized(resolve(tape, &geom, &slots)),
        };
        Ok(Launch {
            domain,
            slots,
            geom,
            engine,
            licm_disabled: !tape.levels_monotone(),
            names: ["launches", "cells", "kernel", "licm_disabled"]
                .map(|what| format!("exec.{what}.{}", tape.name)),
            tape: tape.clone(),
        })
    }

    /// [`Launch::bind`] under `mode` or, failing that, under the next engine
    /// that can run the tape: Native → Vectorized → Serial. This and
    /// [`fall_back`] are the one place an engine is chosen for a tape; every
    /// downgrade is counted, none is silent.
    pub fn bind_or_fall_back(
        tape: &Tape,
        store: &FieldStore,
        domain: [usize; 3],
        mode: ExecMode,
    ) -> Launch {
        let mut mode = mode;
        loop {
            match Launch::bind(tape, store, domain, mode) {
                Ok(launch) => return launch,
                Err(e) => mode = fall_back(tape, &e),
            }
        }
    }

    /// The engine this launch runs under (what was asked for, or what it
    /// fell back to).
    pub fn mode(&self) -> ExecMode {
        match self.engine {
            Engine::Serial(_) => ExecMode::Serial,
            Engine::Vectorized(_) => ExecMode::Vectorized,
            Engine::Native(_) => ExecMode::Native,
        }
    }

    /// The bound tape's iteration range: the interior plus its `iter_extent`.
    pub fn extended_range(&self) -> [usize; 3] {
        extended_range(&self.tape, self.domain)
    }

    /// The fields whose arrays a run takes out of the store to write
    /// (`written`), or only borrows to read, in slot order.
    fn fields(&self, written: bool) -> impl Iterator<Item = Field> + '_ {
        let fields = self.tape.fields.iter().zip(&self.slots);
        fields
            .filter(move |(_, s)| s.is_write() == written)
            .map(|(f, _)| *f)
    }

    /// Execute the tape over `region`, a sub-box of [`Self::extended_range`]
    /// — the overlapped distributed schedule launches the interior while
    /// halo messages are in flight and the frontier shells after the
    /// receives complete. Cells outside `region` are untouched; cell
    /// semantics (absolute coordinates, Philox counters) do not depend on
    /// the region, so tiling regions are bitwise one full launch.
    ///
    /// Infallible: a changed storage geometry rebinds (every gate of
    /// [`Launch::bind`] runs again before any store), and a compiled kernel
    /// that rejects its argument pack — its arity checks precede every store
    /// — falls back like a failed bind.
    pub fn run(
        &mut self,
        store: &mut FieldStore,
        params: &[f64],
        region: IterRegion,
        ctx: &RunCtx,
    ) {
        let mut bound = self.tape.fields.iter().zip(&self.geom);
        if !bound.all(|(f, g)| Geom::of(store.get(*f)) == *g) {
            *self = Launch::bind_or_fall_back(&self.tape, store, self.domain, self.mode());
        }
        if let Err(e) = self.execute(store, params, region, ctx) {
            let mode = fall_back(&self.tape, &e);
            *self = Launch::bind_or_fall_back(&self.tape, store, self.domain, mode);
            self.execute(store, params, region, ctx)
                .expect("the interpreters accept every bound launch");
        }
    }

    fn execute(
        &self,
        store: &mut FieldStore,
        params: &[f64],
        region: IterRegion,
        ctx: &RunCtx,
    ) -> Result<(), ExecError> {
        let tape = &self.tape;
        assert_eq!(
            params.len(),
            tape.params.len(),
            "kernel {} expects {} parameters",
            tape.name,
            tape.params.len()
        );
        let ext = self.extended_range();
        assert!(
            (0..3).all(|d| region.hi[d] <= ext[d]),
            "kernel {}: region {:?} exceeds the extended range {:?}",
            tape.name,
            region,
            ext
        );

        // Observability: one span + a few counter bumps per launch (a launch
        // sweeps a whole block, so this is far off the per-cell hot path).
        // `exec.cells` meters the actual iteration count: the region volume,
        // which for a full launch is the extended range.
        let [launches, cells, kernel, licm_disabled] = &self.names;
        if pf_trace::enabled() {
            pf_trace::counter(launches).incr(1);
            let n = region.cells() as u64;
            pf_trace::counter("exec.cells").incr(n);
            pf_trace::counter(cells).incr(n);
            // GPU-rescheduled tapes run every hoisted section per cell on
            // the CPU, silently costing throughput: surface it per launch.
            if self.licm_disabled {
                pf_trace::counter(licm_disabled).incr(1);
            }
        }
        let _launch_span = pf_trace::span(kernel);

        // Split borrows: take the written arrays out of the store.
        let mut writes: Vec<FieldArray> = self.fields(true).map(|f| store.take(f)).collect();
        let reads: Vec<&FieldArray> = self.fields(false).map(|f| store.get(f)).collect();
        let read_data: Vec<&[f64]> = reads.iter().map(|a| a.data()).collect();

        let outer = tape.loop_order[0];
        let result = match &self.engine {
            // A region too narrow along x to fill one strip would run
            // entirely in the strip engine's scalar tear-down loop; the
            // serial driver does the same work over the same plan without
            // the strip bookkeeping. Bitwise interchangeable, purely speed.
            Engine::Vectorized(plan)
                if region.hi[0].saturating_sub(region.lo[0]) >= crate::STRIP_WIDTH =>
            {
                let raw = RawSlice::over(&mut writes);
                fork_join(&partition(region, outer, workers()), &|slab| {
                    Cursor::new(tape, plan, params, ctx, slab).run_strips(&read_data, &raw);
                    Ok(())
                })
            }
            Engine::Serial(plan) | Engine::Vectorized(plan) => {
                let mut write_data: Vec<&mut [f64]> =
                    writes.iter_mut().map(|a| a.data_mut()).collect();
                let mut write = |arr: usize, idx: usize, v: f64| write_data[arr][idx] = v;
                Cursor::new(tape, plan, params, ctx, region).run_cells(&read_data, &mut write);
                Ok(())
            }
            Engine::Native(func) => {
                let raw = RawSlice::over(&mut writes);
                let fields: Vec<NativeField> = self
                    .slots
                    .iter()
                    .zip(&self.geom)
                    .map(|(slot, g)| NativeField {
                        ptr: match *slot {
                            Slot::Write(i) => raw[i].ptr,
                            // Never stored through: bind asserts no field is
                            // both read and written.
                            Slot::Read(i) => read_data[i].as_ptr() as *mut f64,
                        },
                        base: g.base as i64,
                        stride: g.strides.map(|s| s as i64),
                    })
                    .collect();
                fork_join(&partition(region, outer, workers()), &|slab| {
                    crate::native::call(*func, &fields, params, ctx, slab)
                })
                .map_err(|code| ExecError::NativeAbi {
                    kernel: tape.name.clone(),
                    code,
                })
            }
        };

        // The arrays go back before an error surfaces.
        for (f, arr) in self.fields(true).zip(writes) {
            store.insert(f, arr);
        }
        result
    }
}

thread_local! {
    /// Worker-count override installed by [`with_workers`]; 0 = use the
    /// hardware parallelism.
    static WORKERS: Cell<usize> = const { Cell::new(0) };
}

/// Run `f` with every launch made from this thread cut into at most
/// `workers` slabs (0 = the hardware parallelism, the default): the one
/// knob of the per-core scaling measurements.
pub fn with_workers<R>(workers: usize, f: impl FnOnce() -> R) -> R {
    let prev = WORKERS.with(|w| w.replace(workers));
    let out = f();
    WORKERS.with(|w| w.set(prev));
    out
}

fn workers() -> usize {
    match WORKERS.with(Cell::get) {
        0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
        n => n,
    }
}

/// Cut `region` along `dim` into at most `workers` slabs of near-equal
/// extent: none empty, pairwise disjoint, tiling `region` exactly. An empty
/// region has no slabs.
fn partition(region: IterRegion, dim: usize, workers: usize) -> Vec<IterRegion> {
    if region.is_empty() {
        return Vec::new();
    }
    let (lo, span) = (region.lo[dim], region.hi[dim] - region.lo[dim]);
    let n = workers.clamp(1, span);
    (0..n)
        .map(|i| {
            let mut slab = region;
            slab.lo[dim] = lo + span * i / n;
            slab.hi[dim] = lo + span * (i + 1) / n;
            slab
        })
        .collect()
}

/// The one fork-join: `run` over every slab, the first on the calling
/// thread and each other one on a thread of its own. The first error (every
/// slab of a launch fails alike, if any does) is the launch's.
fn fork_join<E: Send>(
    slabs: &[IterRegion],
    run: &(impl Fn(IterRegion) -> Result<(), E> + Sync),
) -> Result<(), E> {
    let Some((&first, rest)) = slabs.split_first() else {
        return Ok(());
    };
    std::thread::scope(|s| {
        let spawned: Vec<_> = rest
            .iter()
            .map(|&slab| s.spawn(move || run(slab)))
            .collect();
        spawned.into_iter().fold(run(first), |done, slab| {
            done.and(slab.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
        })
    })
}

/// A launch asked for the strip engine and runs serially instead.
fn count_serial_fallback(tape: &Tape) {
    if pf_trace::enabled() {
        pf_trace::counter(&format!("exec.serial_fallback.{}", tape.name)).incr(1);
        pf_trace::counter(&format!("exec.fallback.{}", tape.name)).incr(1);
    }
}

/// The engine to try after `err`, counted under `exec.fallback.<kernel>`.
/// An off-centre store needs the one engine whose region is never cut
/// into slabs. A native failure is never fatal: the vectorized interpreter
/// is bitwise identical (and a tape it rejects too lands on Serial next).
fn fall_back(tape: &Tape, err: &ExecError) -> ExecMode {
    match err {
        ExecError::NonCentreStore { .. } => {
            count_serial_fallback(tape);
            ExecMode::Serial
        }
        ExecError::NativeCompile { .. } | ExecError::NativeAbi { .. } => {
            if pf_trace::enabled() {
                pf_trace::counter(&format!("exec.fallback.{}", tape.name)).incr(1);
            }
            // Warn once per process — a broken rustc would otherwise spam
            // every bind.
            static WARNED: std::sync::Once = std::sync::Once::new();
            WARNED.call_once(|| {
                eprintln!(
                    "pf-backend: native execution unavailable, falling back to vectorized: {err}"
                );
            });
            ExecMode::Vectorized
        }
    }
}

/// Execute `tape` over the block interior (plus its `iter_extent`): bind,
/// run once. `domain` is the block's interior cell shape; the written
/// arrays must be sized to accept the extended iteration range of face
/// kernels. Callers that launch a tape repeatedly keep the [`Launch`].
pub fn run_kernel(
    tape: &Tape,
    store: &mut FieldStore,
    params: &[f64],
    domain: [usize; 3],
    ctx: &RunCtx,
    mode: ExecMode,
) {
    let region = IterRegion::full(extended_range(tape, domain));
    run_kernel_region(tape, store, params, domain, region, ctx, mode);
}

/// [`run_kernel`] over a sub-box of the extended iteration range; see
/// [`Launch::run`].
pub fn run_kernel_region(
    tape: &Tape,
    store: &mut FieldStore,
    params: &[f64],
    domain: [usize; 3],
    region: IterRegion,
    ctx: &RunCtx,
    mode: ExecMode,
) {
    Launch::bind_or_fall_back(tape, store, domain, mode).run(store, params, region, ctx);
}

/// Loop driver holding the per-region constants, shared by the serial and
/// the strip engine.
pub(crate) struct Cursor<'a> {
    pub(crate) tape: &'a Tape,
    pub(crate) plan: &'a Plan,
    params: &'a [f64],
    pub(crate) ctx: &'a RunCtx,
    pub(crate) region: IterRegion,
    pub(crate) rng: CellRng,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(
        tape: &'a Tape,
        plan: &'a Plan,
        params: &'a [f64],
        ctx: &'a RunCtx,
        region: IterRegion,
    ) -> Self {
        Cursor {
            tape,
            plan,
            params,
            ctx,
            region,
            rng: CellRng::new(ctx.seed),
        }
    }

    /// Linear index of `base + idx3·strides + delta`.
    #[inline(always)]
    pub(crate) fn index(base: isize, s: [isize; 3], idx3: [usize; 3], delta: isize) -> usize {
        (base + idx3[0] as isize * s[0] + idx3[1] as isize * s[1] + idx3[2] as isize * s[2] + delta)
            as usize
    }

    /// The one scalar step evaluator: the value of step `i` for the cell at
    /// `idx3`, operands read from `regs[r * S]` — `S = 1` is the serial
    /// engine's register file, `S = STRIP_WIDTH` lane 0 of the strip
    /// engine's. A store also returns its `(array, index)` target.
    #[inline(always)]
    pub(crate) fn eval<const S: usize>(
        &self,
        regs: &[f64],
        read_data: &[&[f64]],
        i: usize,
        idx3: [usize; 3],
    ) -> (f64, Option<(usize, usize)>) {
        let (ctx, p) = (self.ctx, self.plan);
        let r = |a: pf_ir::VReg| regs[a.0 as usize * S];
        let cell = |d: usize| ctx.origin[d] + idx3[d] as i64;
        let v = match p.steps[i] {
            Step::Op(op) => match op {
                TapeOp::Const(c) => c.0,
                TapeOp::Param(p) => self.params[p as usize],
                TapeOp::Coord(d) => {
                    let dd = d as usize;
                    (ctx.origin[dd] as f64 + idx3[dd] as f64 + 0.5) * ctx.dx[dd]
                }
                TapeOp::Time => ctx.time,
                TapeOp::CellIdx(d) => ctx.origin[d as usize] as f64 + idx3[d as usize] as f64,
                TapeOp::Rand(lane) => {
                    self.rng
                        .uniform_pm1([cell(0), cell(1), cell(2)], ctx.timestep, lane as u32)
                }
                TapeOp::CmpSelect { op, l, r: rr, t, f } => {
                    if op.eval(r(l), r(rr)) {
                        r(t)
                    } else {
                        r(f)
                    }
                }
                TapeOp::Fence => 0.0,
                TapeOp::Load { .. } | TapeOp::Store { .. } => unreachable!("resolved in plan"),
                _ => match op.arith().expect("every other op is arithmetic") {
                    Arith::Un(o, a) => o.eval(r(a), self.tape.approx),
                    Arith::Bin(o, a, b) => o.eval(r(a), r(b), self.tape.approx),
                },
            },
            Step::Load { arr, delta } => {
                let a = arr as usize;
                let idx = Self::index(p.read_base[a], p.read_strides[a], idx3, delta);
                read_data[a][idx]
            }
            Step::Store { arr, delta, val } => {
                let a = arr as usize;
                let idx = Self::index(p.write_base[a], p.write_strides[a], idx3, delta);
                return (regs[val as usize * S], Some((a, idx)));
            }
        };
        (v, None)
    }

    /// The serial engine: the tape over `self.region`, cell by cell.
    fn run_cells(&self, read_data: &[&[f64]], write: &mut impl FnMut(usize, usize, f64)) {
        let mut regs = vec![0.0f64; self.tape.instrs.len()];
        // Sweep-invariant section; a store in it is discarded, as in every
        // other engine (the levels pass pins stores per cell).
        let s0 = self.plan.sec[0];
        self.exec_section(&mut regs, read_data, &mut |_, _, _| {}, 0, s0, [0; 3]);
        let outer = self.tape.loop_order[0];
        for o in self.region.lo[outer]..self.region.hi[outer] {
            self.run_outer(&mut regs, read_data, write, o);
        }
    }

    /// Execute one outer-loop iteration (levels 1..3 at the right depths).
    fn run_outer(
        &self,
        regs: &mut [f64],
        read_data: &[&[f64]],
        write: &mut impl FnMut(usize, usize, f64),
        o: usize,
    ) {
        let order = self.tape.loop_order;
        let [s0, s1, s2, s3] = self.plan.sec;
        let mut idx3 = [0usize; 3];
        idx3[order[0]] = o;
        self.exec_section(regs, read_data, write, s0, s1, idx3);
        for m in self.region.lo[order[1]]..self.region.hi[order[1]] {
            idx3[order[1]] = m;
            self.exec_section(regs, read_data, write, s1, s2, idx3);
            for x in self.region.lo[order[2]]..self.region.hi[order[2]] {
                idx3[order[2]] = x;
                self.exec_section(regs, read_data, write, s2, s3, idx3);
            }
        }
    }

    /// Steps `from..to` for the cell at `idx3`; `write(array, index, value)`
    /// receives the stores.
    #[inline]
    fn exec_section(
        &self,
        regs: &mut [f64],
        read_data: &[&[f64]],
        write: &mut impl FnMut(usize, usize, f64),
        from: usize,
        to: usize,
        idx3: [usize; 3],
    ) {
        for i in from..to {
            let (v, store) = self.eval::<1>(regs, read_data, i, idx3);
            if let Some((a, idx)) = store {
                write(a, idx, v);
            }
            regs[i] = v;
        }
    }
}

/// The one timed loop: bind every tape of a multi-pass kernel (e.g. a split
/// variant's face tapes plus its update) once, run one untimed warm-up
/// sweep, then time `sweeps` sweeps; seconds.
///
/// What is timed is the steady state a simulation sees — for
/// [`ExecMode::Native`] the artifact was compiled and loaded by the bind —
/// through the production [`Launch`], fall-backs included, so a candidate is
/// timed as it would actually execute, not as an idealized variant of
/// itself.
pub fn time_sweeps(
    tapes: &[&Tape],
    store: &mut FieldStore,
    params: &[f64],
    domain: [usize; 3],
    ctx: &RunCtx,
    mode: ExecMode,
    sweeps: usize,
) -> f64 {
    assert!(sweeps >= 1, "cannot time zero sweeps");
    let mut launches: Vec<Launch> = tapes
        .iter()
        .map(|t| Launch::bind_or_fall_back(t, store, domain, mode))
        .collect();
    let mut sweep = |store: &mut FieldStore| {
        for l in &mut launches {
            l.run(store, params, IterRegion::full(l.extended_range()), ctx);
        }
    };
    sweep(store);
    let t0 = std::time::Instant::now();
    for _ in 0..sweeps {
        sweep(store);
    }
    t0.elapsed().as_secs_f64().max(1e-9)
}

/// Measurement entry point for the autotuner: MLUP/s of [`time_sweeps`],
/// the lattice count being the sum of every pass's extended range
/// (matching `exec.cells`).
pub fn time_tapes(
    tapes: &[&Tape],
    store: &mut FieldStore,
    params: &[f64],
    domain: [usize; 3],
    ctx: &RunCtx,
    mode: ExecMode,
    sweeps: usize,
) -> f64 {
    if pf_trace::enabled() {
        pf_trace::counter("exec.measure.runs").incr(1);
    }
    let cells_per_sweep: usize = tapes
        .iter()
        .map(|t| extended_range(t, domain).iter().product::<usize>())
        .sum();
    let secs = time_sweeps(tapes, store, params, domain, ctx, mode, sweeps);
    (cells_per_sweep * sweeps) as f64 / secs / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_fields::Layout;
    use pf_ir::{generate, GenOptions};
    use pf_stencil::{Assignment, Discretization, StencilKernel};
    use pf_symbolic::{Access, Expr, Field};

    /// Jacobi heat step: dst = src + dt·Δsrc (2D).
    fn heat_tapes() -> (Field, Field, pf_ir::Tape) {
        let src = Field::new("ex_src", 1, 2);
        let dst = Field::new("ex_dst", 1, 2);
        let disc = Discretization::isotropic(2, 1.0);
        let u = Expr::access(Access::center(src, 0));
        let rhs: Expr = (0..2)
            .map(|d| Expr::d(Expr::num(1.0) * Expr::d(u.clone(), d), d))
            .sum();
        let update = disc.explicit_euler(Access::center(src, 0), &rhs, 0.1);
        let k = StencilKernel::new(
            "heat",
            vec![Assignment::store(Access::center(dst, 0), update)],
        );
        let tape = generate(&k, &GenOptions::default());
        (src, dst, tape)
    }

    fn setup(src: Field, dst: Field, n: usize) -> FieldStore {
        let mut store = FieldStore::new();
        store
            .allocate(src, [n, n, 1], 1, Layout::Fzyx)
            .fill_with(0, |x, y, _| ((x * 31 + y * 17) % 7) as f64);
        store.get_mut(src).apply_periodic(0);
        store.get_mut(src).apply_periodic(1);
        store.allocate(dst, [n, n, 1], 1, Layout::Fzyx);
        store
    }

    #[test]
    #[should_panic(expected = "does not fit its bound storage")]
    fn launch_gate_rejects_out_of_halo_loads() {
        // A second-neighbour load against single-ghost storage must be
        // refused at launch, before any memory is touched.
        let src = Field::new("ex_gate_src", 1, 2);
        let dst = Field::new("ex_gate_dst", 1, 2);
        let k = StencilKernel::new(
            "gate",
            vec![Assignment::store(
                Access::center(dst, 0),
                Expr::access(Access::at(src, 0, [2, 0, 0])),
            )],
        );
        let tape = generate(&k, &GenOptions::default());
        let mut store = setup(src, dst, 8);
        run_kernel(
            &tape,
            &mut store,
            &[],
            [8, 8, 1],
            &RunCtx::default(),
            ExecMode::Serial,
        );
    }

    #[test]
    fn heat_step_conserves_mass_with_periodic_bc() {
        let (src, dst, tape) = heat_tapes();
        let mut store = setup(src, dst, 16);
        let before = store.get(src).interior_sum(0);
        run_kernel(
            &tape,
            &mut store,
            &[],
            [16, 16, 1],
            &RunCtx::default(),
            ExecMode::Serial,
        );
        let after = store.get(dst).interior_sum(0);
        assert!((before - after).abs() < 1e-9, "{before} vs {after}");
    }

    #[test]
    fn non_centre_outer_store_is_typed_error_with_serial_fallback() {
        // A store offset along the outer loop dimension (z for the default
        // [2,1,0] order) breaks the parallel partitioning: the checked bind
        // reports it as a typed error, the infallible API falls back to a
        // serial launch that produces the same cells as ExecMode::Serial.
        let src = Field::new("ex_nc_src", 1, 3);
        let dst = Field::new("ex_nc_dst", 1, 3);
        let k = StencilKernel::new(
            "nc_store",
            vec![Assignment::store(
                Access::at(dst, 0, [0, 0, 1]),
                Expr::access(Access::center(src, 0)),
            )],
        );
        let tape = generate(&k, &GenOptions::default());
        assert_eq!(tape.loop_order[0], 2, "z must be the outer loop here");
        let mk = || {
            let mut store = FieldStore::new();
            store
                .allocate(src, [8, 4, 4], 1, Layout::Fzyx)
                .fill_with(0, |x, y, z| (x * 5 + y * 3 + z) as f64);
            store.allocate(dst, [8, 4, 4], 1, Layout::Fzyx);
            store
        };
        let ctx = RunCtx::default();

        let mut serial = mk();
        run_kernel(&tape, &mut serial, &[], [8, 4, 4], &ctx, ExecMode::Serial);

        let mode = ExecMode::Vectorized;
        let s = mk();
        let err = Launch::bind(&tape, &s, [8, 4, 4], mode)
            .err()
            .expect("off-centre outer store must be rejected");
        match &err {
            ExecError::NonCentreStore {
                kernel,
                dim,
                offset,
            } => {
                assert_eq!(kernel, "nc_store");
                assert_eq!(*dim, 2);
                assert_eq!(*offset, 1);
            }
            other => panic!("expected NonCentreStore, got {other:?}"),
        }
        assert!(err.to_string().contains("outer loop"), "{err}");
        // Checked failure leaves the destination untouched…
        assert!(s.get(dst).max_abs_diff(serial.get(dst)) > 0.0);
        // …and the infallible API completes via the serial fallback.
        let mut f = mk();
        run_kernel(&tape, &mut f, &[], [8, 4, 4], &ctx, mode);
        assert_eq!(f.get(dst).max_abs_diff(serial.get(dst)), 0.0);
    }

    #[test]
    fn exec_cells_meters_the_extended_iteration_range() {
        // Regression: the counter used to multiply the interior `domain`
        // while the loops sweep domain + iter_extent — a face kernel over
        // [4,4,1] actually visits 5·4·1 = 20 cells, not 16.
        let src = Field::new("ex_mt_src", 1, 2);
        let flux = Field::new("ex_mt_flux", 1, 2);
        let d = Expr::access(Access::center(src, 0)) - Expr::access(Access::at(src, 0, [-1, 0, 0]));
        let mut k = StencilKernel::new(
            "meter_faces",
            vec![Assignment::store(Access::center(flux, 0), d)],
        );
        k.iter_extent = [1, 0, 0];
        let tape = generate(&k, &GenOptions::default());
        let mut store = FieldStore::new();
        store
            .allocate(src, [4, 4, 1], 1, Layout::Fzyx)
            .fill_with(0, |x, _, _| x as f64);
        store.allocate(flux, [5, 5, 1], 0, Layout::Fzyx);
        let before = pf_trace::counter("exec.cells.meter_faces").value();
        run_kernel(
            &tape,
            &mut store,
            &[],
            [4, 4, 1],
            &RunCtx::default(),
            ExecMode::Serial,
        );
        let after = pf_trace::counter("exec.cells.meter_faces").value();
        if pf_trace::enabled() {
            assert_eq!(after - before, 20, "ext = (4+1)·4·1 cells per launch");
        }
    }

    #[test]
    fn region_launches_tile_to_a_bitwise_identical_full_sweep() {
        // Split a 3D diffusion + Philox-noise sweep into interior plus
        // frontier shells: running the pieces must reproduce the full
        // launch bit for bit in every execution mode (the property the
        // overlapped distributed schedule rests on).
        use pf_grid::split_frontier;
        let src = Field::new("ex_rg_src", 1, 3);
        let dst = Field::new("ex_rg_dst", 1, 3);
        let disc = Discretization::isotropic(3, 1.0);
        let u = Expr::access(Access::center(src, 0));
        let rhs: Expr = (0..3)
            .map(|d| Expr::d(Expr::num(1.0) * Expr::d(u.clone(), d), d))
            .sum();
        let update = disc.explicit_euler(Access::center(src, 0), &rhs, 0.05) + Expr::rand(0) * 0.01;
        let k = StencilKernel::new(
            "region_tiled",
            vec![Assignment::store(Access::center(dst, 0), update)],
        );
        let tape = generate(&k, &GenOptions::default());
        // 20 % 8 = 4: vectorized strips hit the remainder loop too.
        let domain = [20usize, 6, 5];
        let mk = || {
            let mut store = FieldStore::new();
            store
                .allocate(src, domain, 1, Layout::Fzyx)
                .fill_with(0, |x, y, z| ((x * 7 + y * 3 + z) % 11) as f64);
            for d in 0..3 {
                store.get_mut(src).apply_periodic(d);
            }
            store.allocate(dst, domain, 1, Layout::Fzyx);
            store
        };
        let ctx = RunCtx {
            seed: 42,
            ..RunCtx::default()
        };
        for mode in [ExecMode::Serial, ExecMode::Vectorized] {
            let mut full = mk();
            run_kernel(&tape, &mut full, &[], domain, &ctx, mode);
            let mut split = mk();
            let (interior, shells) = split_frontier(domain, [1; 3], [2, 1, 1]);
            run_kernel_region(&tape, &mut split, &[], domain, interior, &ctx, mode);
            for r in &shells {
                run_kernel_region(&tape, &mut split, &[], domain, *r, &ctx, mode);
            }
            assert_eq!(
                full.get(dst).max_abs_diff(split.get(dst)),
                0.0,
                "mode {mode:?}"
            );
        }
    }

    proptest::proptest! {
        /// A slab is a region: for any region, outer dimension and worker
        /// count the slabs tile the region exactly — every cell in one slab,
        /// no slab empty, at most `workers` of them, none for an empty region.
        #[test]
        fn slabs_tile_their_region_exactly(
            lo in (0usize..4, 0usize..4, 0usize..4),
            size in (0usize..7, 0usize..7, 0usize..7),
            dim in 0usize..3,
            workers in 1usize..=9,
        ) {
            let lo = [lo.0, lo.1, lo.2];
            let hi = [lo[0] + size.0, lo[1] + size.1, lo[2] + size.2];
            let region = IterRegion { lo, hi };
            let slabs = partition(region, dim, workers);
            assert!(slabs.len() <= workers && slabs.iter().all(|s| !s.is_empty()));
            assert_eq!(slabs.is_empty(), region.is_empty());
            assert_eq!(slabs.iter().map(IterRegion::cells).sum::<usize>(), region.cells());
            for z in 0..hi[2] + 1 {
                for y in 0..hi[1] + 1 {
                    for x in 0..hi[0] + 1 {
                        let covers = slabs.iter().filter(|s| s.contains([x, y, z])).count();
                        assert_eq!(covers, usize::from(region.contains([x, y, z])));
                    }
                }
            }
        }
    }

    #[test]
    fn a_launch_rebinds_exactly_when_the_storage_geometry_changes() {
        // Jacobi pair of equally shaped arrays: dst = src(x-1) + src(x+1).
        let a = Field::new("ex_rb_a", 1, 2);
        let b = Field::new("ex_rb_b", 1, 2);
        let sum =
            Expr::access(Access::at(a, 0, [-1, 0, 0])) + Expr::access(Access::at(a, 0, [1, 0, 0]));
        let k = StencilKernel::new(
            "rebind_gate",
            vec![Assignment::store(Access::center(b, 0), sum)],
        );
        let tape = generate(&k, &GenOptions::default());
        let domain = [8usize, 4, 1];
        let mut store = FieldStore::new();
        store
            .allocate(a, domain, 1, Layout::Fzyx)
            .fill_with(0, |x, y, _| (x * 3 + y) as f64);
        store.get_mut(a).apply_periodic(0);
        store.allocate(b, domain, 1, Layout::Fzyx);
        let binds = || pf_trace::counter("exec.bind.rebind_gate").value();
        let b0 = binds();
        let ctx = RunCtx::default();
        let full = IterRegion::full(domain);

        let mut launch = Launch::bind(&tape, &store, domain, ExecMode::Serial).expect("binds");
        launch.run(&mut store, &[], full, &ctx);
        // The src ↔ dst exchange at the end of a timestep keeps every
        // slot's geometry: the same launch now reads what it wrote.
        store.swap(a, b);
        store.get_mut(a).apply_periodic(0);
        launch.run(&mut store, &[], full, &ctx);
        assert_eq!(
            store.get(b).get(0, 3, 1, 0),
            2.0 * (2.0 * (3.0 * 3.0 + 1.0))
        );
        if pf_trace::enabled() {
            assert_eq!(binds() - b0, 1, "equal geometry must not rebind");
        }

        // Another geometry that fits (two ghost layers): one rebind, and
        // the offsets resolved against it.
        store
            .allocate(a, domain, 2, Layout::Fzyx)
            .fill_with(0, |x, _, _| x as f64);
        launch.run(&mut store, &[], full, &ctx);
        assert_eq!(store.get(b).get(0, 3, 1, 0), 2.0 + 4.0);
        if pf_trace::enabled() {
            assert_eq!(binds() - b0, 2, "a changed geometry rebinds");
        }

        // An array with no ghost layer under the same field: the rebind's
        // halo gate refuses the launch, and nothing was stored.
        store.allocate(a, domain, 0, Layout::Fzyx);
        let before = store.get(b).clone();
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            launch.run(&mut store, &[], full, &ctx)
        }))
        .expect_err("x±1 loads cannot fit ghost-less storage");
        let msg = refused.downcast_ref::<String>().expect("assert message");
        assert!(msg.contains("does not fit its bound storage"), "{msg}");
        assert_eq!(store.get(b).data(), before.data());
        if pf_trace::enabled() {
            assert_eq!(binds() - b0, 2, "a refused rebind binds nothing");
        }
    }

    #[test]
    fn approx_division_changes_low_bits_only() {
        let src = Field::new("ex_ap_src", 1, 2);
        let dst = Field::new("ex_ap_dst", 1, 2);
        let rhs = Expr::one() / (Expr::access(Access::center(src, 0)) + 3.0);
        let k = StencilKernel::new("ap", vec![Assignment::store(Access::center(dst, 0), rhs)]);
        let mut exact = generate(&k, &GenOptions::default());
        let mut approx = exact.clone();
        approx.approx.fast_div = true;
        let _ = &mut exact;

        let run = |tape: &pf_ir::Tape| {
            let mut store = FieldStore::new();
            store
                .allocate(src, [4, 4, 1], 1, Layout::Fzyx)
                .fill_with(0, |x, y, _| (x + y) as f64 * 0.37);
            store.allocate(dst, [4, 4, 1], 1, Layout::Fzyx);
            run_kernel(
                tape,
                &mut store,
                &[],
                [4, 4, 1],
                &RunCtx::default(),
                ExecMode::Serial,
            );
            store.take(dst)
        };
        let e = run(&exact);
        let a = run(&approx);
        let diff = e.max_abs_diff(&a);
        assert!(diff > 0.0, "approx mode should differ slightly");
        assert!(diff < 1e-6, "but only in low bits, got {diff}");
    }

    #[test]
    fn face_kernel_iterates_extended_domain() {
        // A staggered-style kernel writing x-faces (extent+1 along x).
        let src = Field::new("ex_fc_src", 1, 2);
        let flux = Field::new("ex_fc_flux", 1, 2);
        let d = Expr::access(Access::center(src, 0)) - Expr::access(Access::at(src, 0, [-1, 0, 0]));
        let mut k =
            StencilKernel::new("faces", vec![Assignment::store(Access::center(flux, 0), d)]);
        k.iter_extent = [1, 0, 0];
        let tape = generate(&k, &GenOptions::default());
        let mut store = FieldStore::new();
        store
            .allocate(src, [4, 4, 1], 1, Layout::Fzyx)
            .fill_with(0, |x, _, _| (x * x) as f64);
        store.get_mut(src).apply_periodic(0);
        store.allocate(flux, [5, 5, 1], 0, Layout::Fzyx);
        run_kernel(
            &tape,
            &mut store,
            &[],
            [4, 4, 1],
            &RunCtx::default(),
            ExecMode::Serial,
        );
        // interior face 2 = u(2) − u(1) = 4 − 1
        assert_eq!(store.get(flux).get(0, 2, 0, 0), 3.0);
        // extended face 4 = u(4) − u(3) = ghost(= u(0)) − u(3) = 0 − 9
        assert_eq!(store.get(flux).get(0, 4, 0, 0), -9.0);
        // face 0 = u(0) − u(−1) = 0 − ghost(= u(3)) = −9
        assert_eq!(store.get(flux).get(0, 0, 0, 0), -9.0);
    }
}
