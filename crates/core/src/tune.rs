//! Autotuning: variant/blocking selection by search (§6.1 closed loop).
//!
//! The paper prices kernel candidates with the ECM model plus cache
//! simulation and picks the fastest; `select_variants` reproduces that
//! static rating. This module closes the remaining gap to a real
//! autotuner with the classical enumerate → price → shortlist → measure →
//! persist loop:
//!
//! 1. **Enumerate** candidate configurations per (kernel family, shape):
//!    variant (full/split) × loop order × (y,z) cache-blocking tile ×
//!    SIMD strip width.
//! 2. **Price** every candidate with [`pf_perfmodel::price_candidate`]
//!    (ECM + exact cache simulation) — thousands of model evaluations cost
//!    less than one real run.
//! 3. **Shortlist** the top-K *executable* configurations (blocking and
//!    strip width are pricing dimensions — the strip engine fixes its
//!    width at [`pf_backend::STRIP_WIDTH`] and blocks internally — so
//!    candidates that differ only there collapse onto one measurement).
//! 4. **Measure** the shortlist with short best-of-N sweeps through the
//!    real backend ([`pf_backend::time_tapes`]) under every available
//!    execution engine, including compiled-native kernels.
//! 5. **Persist** the winner to a versioned, checksummed on-disk cache
//!    keyed on (machine-model fingerprint, kernel structural hashes,
//!    geometry) that [`select_variants_tuned`] consults at launch.
//!
//! Measurement stays strictly off the default launch path: a warm cache
//! hit costs one small file read, a miss falls back to the static
//! heuristic (warn-free — cold misses are normal), and corrupt or
//! version-mismatched entries fall back warn-once. `PF_TUNE=off` kills the
//! whole consult; `PF_TUNE_CACHE_DIR` relocates the cache.
//!
//! The same pricing discipline rescues the GPU-approx path:
//! [`tune_gpu_schedule`] prices the register-pressure reschedules (which
//! trade LICM for live-range width) against the occupancy payoff instead
//! of applying them unconditionally.

use crate::bytes::{seal, unseal, Fnv, Reader, Short};
use crate::kernels::KernelSet;
use crate::params::ModelParams;
use crate::select::{default_exec_mode, select_variants};
use crate::sim::{SimConfig, Simulation, Variant};
use pf_backend::ExecMode;
use pf_ir::Tape;
use pf_machine::{CpuSocket, Gpu};
use std::io::Write;
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------------
// Cache keying
// ---------------------------------------------------------------------------

/// On-disk format version. Bump on any layout change: readers reject other
/// versions *before* the checksum check, so old processes sharing a cache
/// directory with new ones degrade to the static heuristic instead of
/// misparsing each other's entries.
pub const TUNE_FORMAT_VERSION: u32 = 1;

const TUNE_MAGIC: &[u8; 8] = b"PFTUNE01";

/// Identity of one kernel family's full search space: the structural hashes
/// of *both* variants' canonical tapes. Any change to the generated code —
/// model parameters, discretization, IR pipeline — moves this fingerprint
/// and silently invalidates stale tuning entries.
pub fn family_fingerprint(ks: &KernelSet, family: Family) -> u64 {
    let mut h = Fnv::new();
    for variant in [Variant::Full, Variant::Split] {
        for t in ks.tapes(family, variant) {
            h.write_u64(t.structural_hash());
        }
    }
    h.finish()
}

/// The two kernel families of Algorithm 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    Phi,
    Mu,
}

impl Family {
    pub fn name(self) -> &'static str {
        match self {
            Family::Phi => "phi",
            Family::Mu => "mu",
        }
    }
}

// ---------------------------------------------------------------------------
// Cache entries
// ---------------------------------------------------------------------------

/// One persisted tuning decision: the measured-fastest configuration of a
/// kernel family on a (machine model, kernel set, geometry) triple.
#[derive(Clone, Debug, PartialEq)]
pub struct TuneEntry {
    pub variant: Variant,
    pub mode: ExecMode,
    /// Cache-blocking tile of the best-priced pricing point (model-side
    /// only — the strip engine blocks internally).
    pub block: [usize; 3],
    pub loop_order: [usize; 3],
    /// SIMD strip width of the best-priced pricing point.
    pub strip_width: usize,
    /// Measured MLUP/s of this configuration when it was persisted.
    pub measured_mlups: f64,
    /// ECM-predicted MLUP/s of the best pricing point of this config.
    pub predicted_mlups: f64,
}

/// Typed reasons a cache entry is unusable. Everything except `Io` means
/// the *file* was rejected; the caller falls back to static selection.
#[derive(Debug)]
pub enum TuneCacheError {
    Io(std::io::Error),
    BadMagic,
    /// Written by a different format version (field carries the version
    /// found). Checked before the checksum so future formats are cleanly
    /// rejected rather than reported as corruption.
    UnsupportedVersion(u32),
    Truncated,
    ChecksumMismatch,
    /// The entry decodes but was written for a different (machine, kernel,
    /// shape) key — filename collision paranoia.
    KeyMismatch,
    Malformed(&'static str),
}

impl From<Short> for TuneCacheError {
    fn from(_: Short) -> Self {
        TuneCacheError::Truncated
    }
}

impl std::fmt::Display for TuneCacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TuneCacheError::Io(e) => write!(f, "i/o error: {e}"),
            TuneCacheError::BadMagic => write!(f, "bad magic"),
            TuneCacheError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "format version {v} (this build reads {TUNE_FORMAT_VERSION})"
                )
            }
            TuneCacheError::Truncated => write!(f, "truncated entry"),
            TuneCacheError::ChecksumMismatch => write!(f, "checksum mismatch"),
            TuneCacheError::KeyMismatch => write!(f, "entry written for a different key"),
            TuneCacheError::Malformed(what) => write!(f, "malformed field: {what}"),
        }
    }
}

/// Stable on-disk engine bytes. 1 was the scalar rayon engine; a record
/// naming it is malformed, i.e. a counted miss.
fn encode_mode(m: ExecMode) -> u8 {
    match m {
        ExecMode::Serial => 0,
        ExecMode::Vectorized => 2,
        ExecMode::Native => 3,
    }
}

fn decode_mode(b: u8) -> Result<ExecMode, TuneCacheError> {
    ExecMode::ALL
        .into_iter()
        .find(|m| encode_mode(*m) == b)
        .ok_or(TuneCacheError::Malformed("exec mode"))
}

/// Human-readable variant name (matches the bench schema's variant strings).
pub fn variant_name(v: Variant) -> &'static str {
    match v {
        Variant::Full => "full",
        Variant::Split => "split",
    }
}

// ---------------------------------------------------------------------------
// The cache
// ---------------------------------------------------------------------------

/// A directory of tuning entries, one file per (machine, kernel family,
/// shape) key. Installs are atomic (unique tmp file + rename, the same
/// discipline as the native artifact cache), so concurrent ranks sharing a
/// directory never observe half-written entries.
#[derive(Clone, Debug)]
pub struct TuneCache {
    dir: PathBuf,
}

/// Is the launch-path cache consult enabled? `PF_TUNE=off|0|false` is the
/// kill switch; anything else (including unset) leaves tuning on.
pub fn tune_enabled() -> bool {
    !matches!(
        std::env::var("PF_TUNE").as_deref(),
        Ok("off") | Ok("0") | Ok("false")
    )
}

/// Cache directory: `PF_TUNE_CACHE_DIR`, else `$TMPDIR/pf-tune-cache`.
pub fn tune_cache_dir() -> PathBuf {
    match std::env::var_os("PF_TUNE_CACHE_DIR") {
        Some(d) => PathBuf::from(d),
        None => std::env::temp_dir().join("pf-tune-cache"),
    }
}

impl TuneCache {
    /// Cache rooted at an explicit directory (tests and tools; the launch
    /// path uses [`TuneCache::from_env`]).
    pub fn at(dir: impl Into<PathBuf>) -> TuneCache {
        TuneCache { dir: dir.into() }
    }

    /// Environment-resolved cache, or `None` when `PF_TUNE` turns the
    /// tuning consult off.
    pub fn from_env() -> Option<TuneCache> {
        tune_enabled().then(|| TuneCache::at(tune_cache_dir()))
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The cache key: machine-model fingerprint × kernel-family structural
    /// fingerprint × block geometry.
    pub fn key(machine_fp: u64, tapes_fp: u64, shape: [usize; 3]) -> u64 {
        let mut h = Fnv::new();
        h.write(&machine_fp.to_le_bytes());
        h.write(&tapes_fp.to_le_bytes());
        for d in shape {
            h.write(&(d as u64).to_le_bytes());
        }
        h.finish()
    }

    /// Path of the entry file for a key.
    pub fn entry_path(&self, machine_fp: u64, tapes_fp: u64, shape: [usize; 3]) -> PathBuf {
        self.dir.join(format!(
            "tune-{:016x}.ptc",
            Self::key(machine_fp, tapes_fp, shape)
        ))
    }

    /// Load the entry for a key. `None` on any miss; rejected files
    /// (corruption, version mismatch) warn once per process and bump typed
    /// counters — callers uniformly fall back to static selection.
    pub fn load(&self, machine_fp: u64, tapes_fp: u64, shape: [usize; 3]) -> Option<TuneEntry> {
        let path = self.entry_path(machine_fp, tapes_fp, shape);
        if !path.exists() {
            bump("tune.cache.miss");
            return None;
        }
        match read_entry(&path, machine_fp, tapes_fp, shape) {
            Ok(entry) => {
                bump("tune.cache.hit");
                Some(entry)
            }
            Err(err) => {
                match err {
                    TuneCacheError::UnsupportedVersion(_) => bump("tune.cache.version_mismatch"),
                    _ => bump("tune.cache.corrupt"),
                }
                bump("tune.cache.miss");
                static WARN_ONCE: std::sync::Once = std::sync::Once::new();
                WARN_ONCE.call_once(|| {
                    eprintln!(
                        "warning: ignoring tuning cache entry {} ({err}); \
                         falling back to static variant selection",
                        path.display()
                    );
                });
                None
            }
        }
    }

    /// Persist an entry atomically (unique tmp + rename — see the native
    /// artifact cache for why in-place writes are forbidden here).
    pub fn store(
        &self,
        machine_fp: u64,
        tapes_fp: u64,
        shape: [usize; 3],
        entry: &TuneEntry,
    ) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(&self.dir)?;
        let bytes = encode_entry(machine_fp, tapes_fp, shape, entry);
        let path = self.entry_path(machine_fp, tapes_fp, shape);
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let tmp = self.dir.join(format!(
            ".tune-{}-{}-{}.tmp",
            std::process::id(),
            SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            Self::key(machine_fp, tapes_fp, shape)
        ));
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        match std::fs::rename(&tmp, &path) {
            Ok(()) => {
                bump("tune.cache.store");
                Ok(path)
            }
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }
}

fn bump(name: &str) {
    if pf_trace::enabled() {
        pf_trace::counter(name).incr(1);
    }
}

fn encode_entry(machine_fp: u64, tapes_fp: u64, shape: [usize; 3], e: &TuneEntry) -> Vec<u8> {
    let mut out = Vec::with_capacity(128);
    out.extend_from_slice(TUNE_MAGIC);
    out.extend_from_slice(&TUNE_FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&machine_fp.to_le_bytes());
    out.extend_from_slice(&tapes_fp.to_le_bytes());
    for d in shape {
        out.extend_from_slice(&(d as u64).to_le_bytes());
    }
    out.push(e.variant.code());
    out.push(encode_mode(e.mode));
    for d in e.block {
        out.extend_from_slice(&(d as u64).to_le_bytes());
    }
    for d in e.loop_order {
        out.push(d as u8);
    }
    out.extend_from_slice(&(e.strip_width as u32).to_le_bytes());
    out.extend_from_slice(&e.measured_mlups.to_bits().to_le_bytes());
    out.extend_from_slice(&e.predicted_mlups.to_bits().to_le_bytes());
    seal(&mut out);
    out
}

fn read_entry(
    path: &Path,
    machine_fp: u64,
    tapes_fp: u64,
    shape: [usize; 3],
) -> Result<TuneEntry, TuneCacheError> {
    let bytes = std::fs::read(path).map_err(TuneCacheError::Io)?;
    let mut c = Reader::new(&bytes);
    if c.take(8)? != TUNE_MAGIC {
        return Err(TuneCacheError::BadMagic);
    }
    let version = c.u32()?;
    if version != TUNE_FORMAT_VERSION {
        return Err(TuneCacheError::UnsupportedVersion(version));
    }
    // Whole-file checksum over everything before the trailing 8 bytes.
    if bytes.len() < 8 + c.pos() {
        return Err(TuneCacheError::Truncated);
    }
    unseal(&bytes)?.ok_or(TuneCacheError::ChecksumMismatch)?;
    if c.u64()? != machine_fp || c.u64()? != tapes_fp {
        return Err(TuneCacheError::KeyMismatch);
    }
    for d in shape {
        if c.u64()? != d as u64 {
            return Err(TuneCacheError::KeyMismatch);
        }
    }
    let variant = Variant::from_code(c.u8()?).ok_or(TuneCacheError::Malformed("variant"))?;
    let mode = decode_mode(c.u8()?)?;
    let mut block = [0usize; 3];
    for b in &mut block {
        *b = c.u64()? as usize;
    }
    let mut loop_order = [0usize; 3];
    for d in &mut loop_order {
        *d = c.u8()? as usize;
        if *d > 2 {
            return Err(TuneCacheError::Malformed("loop order"));
        }
    }
    let strip_width = c.u32()? as usize;
    let measured_mlups = c.f64()?;
    let predicted_mlups = c.f64()?;
    if !measured_mlups.is_finite() || !predicted_mlups.is_finite() {
        return Err(TuneCacheError::Malformed("non-finite rating"));
    }
    Ok(TuneEntry {
        variant,
        mode,
        block,
        loop_order,
        strip_width,
        measured_mlups,
        predicted_mlups,
    })
}

// ---------------------------------------------------------------------------
// Launch-path selection
// ---------------------------------------------------------------------------

/// Where a [`TunedChoice`] came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChoiceSource {
    /// Both families hit valid cache entries — zero measurement done.
    Tuned,
    /// Static ECM heuristic (cache off, cold, or rejected).
    Static,
}

/// Outcome of the cache-consulting selection. Supersets
/// [`crate::select::VariantChoice`] with the tuned execution engine.
///
/// **Bitwise contract:** the only launch-time knob a cache state may flip
/// on an *existing* configuration is `mode` — and all execution engines are
/// proven bitwise identical, so tuning can change speed but never results.
/// Variant recommendations (`phi`/`mu`) change floating-point summation
/// order (≈1e-15 per step); they are configuration-time decisions that
/// checkpoints pin, exactly like the static heuristic's recommendations.
#[derive(Clone, Debug)]
pub struct TunedChoice {
    pub phi: Variant,
    pub mu: Variant,
    /// Measured-fastest engine (`None` on static fallback: keep the
    /// shape-based default).
    pub mode: Option<ExecMode>,
    pub source: ChoiceSource,
    /// Static ECM ratings (φ-split, φ-full, µ-split, µ-full), kept for
    /// parity with [`crate::select::VariantChoice`].
    pub predicted_mlups: [f64; 4],
}

/// Cache-consulting variant selection: the launch-path entry point.
///
/// On a warm cache this does **zero measurement** — one file read per
/// family. On any miss it degrades to [`select_variants`] (the paper's
/// static ECM rating). `PF_TUNE=off` skips the consult entirely.
pub fn select_variants_tuned(
    ks: &KernelSet,
    sock: &CpuSocket,
    cores: usize,
    block: [usize; 3],
    shape: [usize; 3],
) -> TunedChoice {
    select_variants_tuned_in(
        TuneCache::from_env().as_ref(),
        ks,
        sock,
        cores,
        block,
        shape,
    )
}

/// [`select_variants_tuned`] against an explicit cache (tests, tools);
/// `None` always selects statically.
pub fn select_variants_tuned_in(
    cache: Option<&TuneCache>,
    ks: &KernelSet,
    sock: &CpuSocket,
    cores: usize,
    block: [usize; 3],
    shape: [usize; 3],
) -> TunedChoice {
    let stat = select_variants(ks, sock, cores, block);
    match cache.and_then(|c| load_both(c, ks, sock, shape)) {
        Some((phi, mu, mode)) => TunedChoice {
            phi: phi.variant,
            mu: mu.variant,
            mode: Some(mode),
            source: ChoiceSource::Tuned,
            predicted_mlups: stat.predicted_mlups,
        },
        None => TunedChoice {
            phi: stat.phi,
            mu: stat.mu,
            mode: None,
            source: ChoiceSource::Static,
            predicted_mlups: stat.predicted_mlups,
        },
    }
}

/// Both families' cache entries for this (machine, kernel set, block shape)
/// and the engine they imply. All-or-nothing — a lone hit is not enough to
/// flip a configuration, so the launch decision is reproducible from a
/// single cache state. One engine drives the whole step: the one measured
/// fastest for the family that dominates the step time (the slower kernel).
fn load_both(
    cache: &TuneCache,
    ks: &KernelSet,
    sock: &CpuSocket,
    shape: [usize; 3],
) -> Option<(TuneEntry, TuneEntry, ExecMode)> {
    let machine_fp = sock.fingerprint();
    let phi = cache.load(machine_fp, family_fingerprint(ks, Family::Phi), shape);
    let mu = cache.load(machine_fp, family_fingerprint(ks, Family::Mu), shape);
    let (phi, mu) = (phi?, mu?);
    let mode = if phi.measured_mlups <= mu.measured_mlups {
        phi.mode
    } else {
        mu.mode
    };
    Some((phi, mu, mode))
}

/// Launch-path engine consult: the measured-fastest execution engine for
/// this (machine, kernel set, block shape), if both families hit the
/// cache. This is the bitwise-neutral subset of [`TunedChoice`] — engines
/// are proven bitwise identical, so callers may apply it to an *existing*
/// configuration (e.g. a rank resuming from a checkpoint) without
/// perturbing results. Zero measurement, two file reads, no ECM rating.
pub fn tuned_exec_mode(
    cache: Option<&TuneCache>,
    ks: &KernelSet,
    sock: &CpuSocket,
    shape: [usize; 3],
) -> Option<ExecMode> {
    load_both(cache?, ks, sock, shape).map(|(_, _, mode)| mode)
}

// ---------------------------------------------------------------------------
// The tuner
// ---------------------------------------------------------------------------

/// Tuning effort knobs.
#[derive(Clone, Debug)]
pub struct TuneOptions {
    /// Executable configurations measured per family (after pricing).
    pub top_k: usize,
    /// Best-of-N repetitions per (configuration, engine).
    pub reps: usize,
    /// Timed sweeps per repetition.
    pub sweeps: usize,
    /// Core count the ECM pricing assumes.
    pub cores: usize,
    /// Persist winners to the cache (off for pure measurement runs).
    pub persist: bool,
}

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions {
            top_k: 3,
            reps: 3,
            sweeps: 2,
            cores: 1,
            persist: true,
        }
    }
}

/// One priced (and possibly measured) candidate configuration.
#[derive(Clone, Debug)]
pub struct Candidate {
    pub variant: Variant,
    pub loop_order: [usize; 3],
    /// Best-priced blocking tile for this executable configuration.
    pub block: [usize; 3],
    /// Best-priced strip width for this executable configuration.
    pub strip_width: usize,
    pub predicted_mlups: f64,
    /// Measured MLUP/s per engine (empty if the candidate missed the
    /// shortlist).
    pub measured: Vec<(ExecMode, f64)>,
}

impl Candidate {
    fn best_measured(&self) -> Option<(ExecMode, f64)> {
        self.measured
            .iter()
            .copied()
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }
}

/// Everything the tuner learned about one kernel family.
#[derive(Clone, Debug)]
pub struct FamilyTuneReport {
    pub family: Family,
    pub shape: [usize; 3],
    /// Size of the priced enumeration (variant × order × block × width).
    pub candidates: usize,
    /// Number of timed (configuration, engine) measurements.
    pub measured: usize,
    /// The configuration selection will use (cache-hit entry if one was
    /// valid, else the fresh winner).
    pub entry: TuneEntry,
    /// Best measured MLUP/s over the whole shortlist.
    pub best_mlups: f64,
    /// Measured MLUP/s of the entry's configuration.
    pub chosen_mlups: f64,
    /// Measured MLUP/s of the static heuristic's choice under the default
    /// engine.
    pub static_mlups: f64,
    pub static_variant: Variant,
    pub static_mode: ExecMode,
    /// `1 - chosen/best`: what the tuned selection leaves on the table.
    pub regret_chosen: f64,
    /// `1 - static/best`: what the *static* heuristic leaves on the table
    /// (the tuner's payoff).
    pub regret_static: f64,
    pub all: Vec<Candidate>,
}

/// (y,z) blocking tiles to price, clamped to the shape. x is never blocked
/// (unit stride).
fn candidate_blocks(shape: [usize; 3]) -> Vec<[usize; 3]> {
    let mut out = Vec::new();
    for (by, bz) in [(24, 8), (16, 16), (8, 32), (32, 4)] {
        let b = [shape[0], by.min(shape[1]).max(1), bz.min(shape[2]).max(1)];
        if !out.contains(&b) {
            out.push(b);
        }
    }
    out
}

/// Strip widths to price: the socket's native width plus one half-width
/// alternative (only the native width is executable today; the narrower
/// rating documents what a remainder-dominated strip would cost).
fn candidate_widths(sock: &CpuSocket) -> Vec<usize> {
    let mut v = vec![sock.simd_f64];
    if sock.simd_f64 >= 2 && !v.contains(&(sock.simd_f64 / 2)) {
        v.push(sock.simd_f64 / 2);
    }
    v
}

/// The loop orders the LICM pass can produce (x always innermost).
const LOOP_ORDERS: [[usize; 3]; 2] = [[2, 1, 0], [1, 2, 0]];

/// Engines worth measuring for a shape on this host.
fn available_modes(shape: [usize; 3]) -> Vec<ExecMode> {
    let mut v = vec![ExecMode::Serial];
    if shape[0] >= pf_backend::STRIP_WIDTH {
        v.push(ExecMode::Vectorized);
    }
    if pf_backend::native_available() {
        v.push(ExecMode::Native);
    }
    v
}

/// Run the full enumerate → price → shortlist → measure → persist loop for
/// both kernel families of `ks` at block geometry `shape`.
///
/// This is the *explicit* tuning entry point (bench binaries, CI smoke, a
/// future `pf tune` tool) — it always measures, which is exactly why the
/// launch path never calls it: launches consult the cache through
/// [`select_variants_tuned`] and fall back to the static heuristic.
pub fn tune_kernel_set(
    p: &ModelParams,
    ks: &KernelSet,
    sock: &CpuSocket,
    shape: [usize; 3],
    cache: Option<&TuneCache>,
    opts: &TuneOptions,
) -> Vec<FamilyTuneReport> {
    // One workload serves every candidate: seed a diffuse front, take one
    // real step so both field generations and the staggered temporaries
    // hold representative data, then refresh all ghosts.
    let mut sim = Simulation::new(p.clone(), ks.clone(), SimConfig::new(shape));
    seed_tune_workload(&mut sim);
    let ctx = sim.ctx();
    let machine_fp = sock.fingerprint();
    let modes = available_modes(shape);

    [Family::Phi, Family::Mu]
        .into_iter()
        .map(|family| {
            tune_family(
                family, ks, sock, shape, cache, opts, &mut sim, &ctx, machine_fp, &modes,
            )
        })
        .collect()
}

fn seed_tune_workload(sim: &mut Simulation) {
    let shape = sim.cfg.shape;
    let eps = sim.params.eps.max(1e-6);
    let phases = sim.params.phases;
    let liquid = sim.params.liquid_phase;
    let solid = (liquid + 1) % phases;
    sim.init_phi(|x, _, _| {
        let d = (x as f64 - shape[0] as f64 / 3.0) / eps;
        let s = 0.5 * (1.0 - d.tanh());
        let mut v = vec![0.0; phases];
        v[liquid] = 1.0 - s;
        v[solid] = s;
        v
    });
    let n_mu = sim.params.num_mu();
    sim.init_mu(move |x, y, _| vec![0.05 + 0.001 * ((x + y) % 5) as f64; n_mu]);
    // One real step fills φ_dst/µ_dst and the staggered flux arrays with
    // representative values, so candidate sweeps touch warm, finite data.
    sim.step();
    let f = sim.kernels.fields;
    for field in [f.phi_src, f.phi_dst, f.mu_src, f.mu_dst] {
        sim.apply_bc(field);
    }
}

#[allow(clippy::too_many_arguments)]
fn tune_family(
    family: Family,
    ks: &KernelSet,
    sock: &CpuSocket,
    shape: [usize; 3],
    cache: Option<&TuneCache>,
    opts: &TuneOptions,
    sim: &mut Simulation,
    ctx: &pf_backend::RunCtx,
    machine_fp: u64,
    modes: &[ExecMode],
) -> FamilyTuneReport {
    let tapes_fp = family_fingerprint(ks, family);
    let prior = cache.and_then(|c| c.load(machine_fp, tapes_fp, shape));

    // Enumerate + price. Executable configurations are (variant, order):
    // blocking tiles and strip widths are model-side dimensions, so each
    // config keeps its best pricing point. Alternate loop orders apply to
    // the full variant only (split flux tapes are direction-bound).
    let mut enumerated = 0usize;
    let mut configs: Vec<(Candidate, Vec<Tape>)> = Vec::new();
    for variant in [Variant::Full, Variant::Split] {
        let orders: &[[usize; 3]] = match variant {
            Variant::Full => &LOOP_ORDERS,
            Variant::Split => &LOOP_ORDERS[..1],
        };
        for &order in orders {
            // The only site that edits its tapes (loop order), so the only
            // one that owns them.
            let mut tapes: Vec<Tape> = ks.tapes(family, variant).into_iter().cloned().collect();
            if variant == Variant::Full {
                for t in &mut tapes {
                    pf_ir::apply_loop_order(t, order);
                }
            }
            let refs: Vec<&Tape> = tapes.iter().collect();
            let mut best: Option<([usize; 3], usize, f64)> = None;
            for block in candidate_blocks(shape) {
                for width in candidate_widths(sock) {
                    enumerated += 1;
                    let mlups =
                        pf_perfmodel::price_candidate(&refs, sock, block, width, opts.cores);
                    if best.is_none() || mlups > best.unwrap().2 {
                        best = Some((block, width, mlups));
                    }
                }
            }
            let (block, strip_width, predicted) = best.unwrap();
            configs.push((
                Candidate {
                    variant,
                    loop_order: if variant == Variant::Full {
                        order
                    } else {
                        tapes[0].loop_order
                    },
                    block,
                    strip_width,
                    predicted_mlups: predicted,
                    measured: Vec::new(),
                },
                tapes,
            ));
        }
    }

    // Shortlist: top-K by predicted MLUP/s, with the static heuristic's
    // pick always measured (it is the regret baseline).
    let stat = select_variants(ks, sock, sock.cores, [24, 24, 8]);
    let static_variant = match family {
        Family::Phi => stat.phi,
        Family::Mu => stat.mu,
    };
    let static_mode = default_exec_mode(shape);
    let default_order = ks.tapes(family, static_variant)[0].loop_order;
    configs.sort_by(|a, b| b.0.predicted_mlups.total_cmp(&a.0.predicted_mlups));
    let is_static = |c: &Candidate| c.variant == static_variant && c.loop_order == default_order;
    let mut shortlist: Vec<usize> = (0..configs.len().min(opts.top_k)).collect();
    if let Some(si) = configs.iter().position(|(c, _)| is_static(c)) {
        if !shortlist.contains(&si) {
            shortlist.push(si);
        }
    }

    // Measure the shortlist: best-of-N short sweeps through the production
    // launch path, per available engine.
    let mut measured = 0usize;
    for &i in &shortlist {
        let (cand, tapes) = &mut configs[i];
        let refs: Vec<&Tape> = tapes.iter().collect();
        for &mode in modes {
            let mut best = 0.0f64;
            for _ in 0..opts.reps {
                let mlups = pf_backend::time_tapes(
                    &refs,
                    &mut sim.store,
                    &[],
                    shape,
                    ctx,
                    mode,
                    opts.sweeps,
                );
                best = best.max(mlups);
                measured += 1;
                bump("tune.measurements");
            }
            cand.measured.push((mode, best));
        }
    }

    // Winner, baseline, regrets.
    let candidates: Vec<Candidate> = configs.iter().map(|(c, _)| c.clone()).collect();
    let (best_cand, best_mode, best_mlups) = candidates
        .iter()
        .filter_map(|c| c.best_measured().map(|(m, v)| (c, m, v)))
        .max_by(|a, b| a.2.total_cmp(&b.2))
        .expect("shortlist is never empty");
    let static_mlups = candidates
        .iter()
        .find(|c| is_static(c))
        .and_then(|c| {
            c.measured
                .iter()
                .find(|(m, _)| *m == static_mode)
                .map(|(_, v)| *v)
        })
        .unwrap_or(0.0);

    let fresh = TuneEntry {
        variant: best_cand.variant,
        mode: best_mode,
        block: best_cand.block,
        loop_order: best_cand.loop_order,
        strip_width: best_cand.strip_width,
        measured_mlups: best_mlups,
        predicted_mlups: best_cand.predicted_mlups,
    };
    // A valid prior entry *is* what launch-time selection will use — report
    // its regret, not the fresh winner's (which is 0 by construction).
    let chosen = prior
        .as_ref()
        .filter(|e| {
            candidates
                .iter()
                .any(|c| c.variant == e.variant && c.loop_order == e.loop_order)
        })
        .cloned()
        .unwrap_or_else(|| fresh.clone());
    let chosen_mlups = candidates
        .iter()
        .find(|c| c.variant == chosen.variant && c.loop_order == chosen.loop_order)
        .and_then(|c| {
            c.measured
                .iter()
                .find(|(m, _)| *m == chosen.mode)
                .map(|(_, v)| *v)
        })
        .unwrap_or(best_mlups);
    let regret = |v: f64| {
        if best_mlups > 0.0 {
            (1.0 - v / best_mlups).max(0.0)
        } else {
            0.0
        }
    };
    let regret_chosen = regret(chosen_mlups);
    let regret_static = regret(static_mlups);

    // Persist the fresh winner on a cold cache, or refresh a prior entry
    // that measurably drifted (>2% regret) — otherwise leave the cache
    // untouched so repeated tuning runs don't churn mtimes.
    if opts.persist {
        if let Some(cache) = cache {
            let stale = prior.is_none() || regret_chosen > 0.02;
            if stale {
                if let Err(e) = cache.store(machine_fp, tapes_fp, shape, &fresh) {
                    bump("tune.cache.store_fail");
                    eprintln!("warning: could not persist tuning entry: {e}");
                }
            }
        }
    }

    FamilyTuneReport {
        family,
        shape,
        candidates: enumerated,
        measured,
        entry: if regret_chosen > 0.02 { fresh } else { chosen },
        best_mlups,
        chosen_mlups,
        static_mlups,
        static_variant,
        static_mode,
        regret_chosen,
        regret_static,
        all: candidates,
    }
}

// ---------------------------------------------------------------------------
// GPU schedule tuning
// ---------------------------------------------------------------------------

/// One priced GPU schedule candidate.
#[derive(Clone, Debug)]
pub struct GpuCandidate {
    pub label: String,
    pub ns_per_cell: f64,
    pub occupancy: f64,
    pub regs_per_thread: u32,
    /// The schedule broke level monotonicity, so executors lose LICM
    /// hoisting (the `schedule.licm-lost` condition from the analyzer).
    pub licm_lost: bool,
}

/// Outcome of pricing the register-pressure reschedules for one tape.
#[derive(Clone, Debug)]
pub struct GpuScheduleChoice {
    /// The tape to run: the best-priced candidate (the untouched input
    /// when no reschedule pays for its LICM loss).
    pub tape: Tape,
    /// A reschedule beat the identity schedule.
    pub adopted: bool,
    pub chosen: GpuCandidate,
    pub identity: GpuCandidate,
    pub candidates: Vec<GpuCandidate>,
}

impl GpuScheduleChoice {
    /// Modelled speedup of the chosen schedule over the identity (>1 means
    /// the reschedule pays).
    pub fn payoff(&self) -> f64 {
        self.identity.ns_per_cell / self.chosen.ns_per_cell.max(1e-12)
    }
}

/// Price the beam-search register-pressure reschedules against the
/// occupancy payoff and adopt one only when the model says it wins.
///
/// Before this, the GPU-approx path applied
/// `insert_fences(schedule_min_live(rematerialize(tape)))` unconditionally
/// — costing LICM hoisting (`schedule.licm-lost`) whether or not register
/// pressure was actually the bottleneck. Here the identity schedule is a
/// first-class candidate: a reschedule must beat it on modelled
/// `ns_per_cell` (occupancy × spill penalty included) to be taken.
pub fn tune_gpu_schedule(
    tape: &Tape,
    gpu: &Gpu,
    mem_bytes_per_cell: f64,
    threads_per_block: u32,
) -> GpuScheduleChoice {
    let price = |label: &str, t: &Tape| {
        let m = pf_perfmodel::gpu_kernel_model(t, gpu, mem_bytes_per_cell, threads_per_block);
        GpuCandidate {
            label: label.to_string(),
            ns_per_cell: m.ns_per_cell,
            occupancy: m.occupancy,
            regs_per_thread: m.regs.allocated,
            licm_lost: !t.levels_monotone(),
        }
    };
    let mut tapes: Vec<(Tape, GpuCandidate)> = vec![(tape.clone(), price("identity", tape))];
    for (remat, window, fence) in [(2u32, 20usize, 48usize), (1, 12, 64), (3, 28, 32)] {
        let label = format!("remat{remat}-beam{window}-fence{fence}");
        let t = pf_ir::insert_fences(
            &pf_ir::schedule_min_live(&pf_ir::rematerialize(tape, remat), window),
            fence,
        );
        let c = price(&label, &t);
        tapes.push((t, c));
    }
    let identity = tapes[0].1.clone();
    let best = tapes
        .iter()
        .enumerate()
        .min_by(|a, b| a.1 .1.ns_per_cell.total_cmp(&b.1 .1.ns_per_cell))
        .map(|(i, _)| i)
        .unwrap();
    // Ties go to the identity schedule: never pay LICM loss for nothing.
    let best = if tapes[best].1.ns_per_cell >= identity.ns_per_cell * (1.0 - 1e-9) {
        0
    } else {
        best
    };
    let adopted = best != 0;
    bump(if adopted {
        "tune.gpu.reschedule_adopted"
    } else {
        "tune.gpu.reschedule_rejected"
    });
    let candidates: Vec<GpuCandidate> = tapes.iter().map(|(_, c)| c.clone()).collect();
    let (tape, chosen) = tapes.swap_remove(best);
    GpuScheduleChoice {
        tape,
        adopted,
        chosen,
        identity,
        candidates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::generate_kernels;
    use pf_ir::GenOptions;
    use pf_machine::skylake_8174;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "pf-tune-test-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn entry() -> TuneEntry {
        TuneEntry {
            variant: Variant::Split,
            mode: ExecMode::Vectorized,
            block: [16, 16, 4],
            loop_order: [2, 1, 0],
            strip_width: 8,
            measured_mlups: 123.5,
            predicted_mlups: 150.25,
        }
    }

    #[test]
    fn entry_roundtrips_bitwise() {
        let dir = scratch("roundtrip");
        let cache = TuneCache::at(&dir);
        let e = entry();
        cache.store(1, 2, [8, 8, 8], &e).unwrap();
        assert_eq!(cache.load(1, 2, [8, 8, 8]), Some(e));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_key_fields_are_rejected() {
        let dir = scratch("key");
        let cache = TuneCache::at(&dir);
        cache.store(1, 2, [8, 8, 8], &entry()).unwrap();
        // Same file read back under a different fingerprint must not parse.
        let path = cache.entry_path(1, 2, [8, 8, 8]);
        let err = read_entry(&path, 9, 2, [8, 8, 8]).unwrap_err();
        assert!(matches!(err, TuneCacheError::KeyMismatch), "{err:?}");
        // And a different shape hashes to a different file: clean miss.
        assert_eq!(cache.load(1, 2, [16, 8, 8]), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pricing_enumeration_is_nonempty_and_positive() {
        let ks = generate_kernels(&crate::kernels::tests::mini_model(), &GenOptions::default());
        let sock = skylake_8174();
        for family in [Family::Phi, Family::Mu] {
            for variant in [Variant::Full, Variant::Split] {
                let refs = ks.tapes(family, variant);
                for block in candidate_blocks([16, 16, 4]) {
                    for width in candidate_widths(&sock) {
                        let m = pf_perfmodel::price_candidate(&refs, &sock, block, width, 1);
                        assert!(m > 0.0 && m.is_finite(), "{family:?} {variant:?}: {m}");
                    }
                }
            }
        }
    }

    #[test]
    fn family_fingerprint_separates_families_and_tracks_tapes() {
        let ks = generate_kernels(&crate::kernels::tests::mini_model(), &GenOptions::default());
        assert_ne!(
            family_fingerprint(&ks, Family::Phi),
            family_fingerprint(&ks, Family::Mu)
        );
        let mut ks2 = ks.clone();
        pf_ir::apply_loop_order(&mut ks2.phi_full, [1, 2, 0]);
        assert_ne!(
            family_fingerprint(&ks, Family::Phi),
            family_fingerprint(&ks2, Family::Phi),
            "loop order is execution-relevant and must move the fingerprint"
        );
        assert_eq!(
            family_fingerprint(&ks, Family::Mu),
            family_fingerprint(&ks2, Family::Mu)
        );
    }

    #[test]
    fn gpu_reschedule_is_priced_not_unconditional() {
        let ks = generate_kernels(&crate::kernels::tests::mini_model(), &GenOptions::default());
        let gpu = pf_machine::tesla_p100();
        let choice = tune_gpu_schedule(&ks.mu_full, &gpu, 80.0, 256);
        assert_eq!(choice.candidates.len(), 4);
        assert!(!choice.identity.licm_lost, "input tape is LICM-clean");
        assert!(choice.chosen.ns_per_cell <= choice.identity.ns_per_cell * (1.0 + 1e-12));
        if choice.adopted {
            assert!(
                choice.payoff() > 1.0,
                "an adopted reschedule must model a win: {}",
                choice.payoff()
            );
        } else {
            assert_eq!(choice.tape.structural_hash(), ks.mu_full.structural_hash());
        }
    }
}
