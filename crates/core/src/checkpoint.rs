//! Versioned binary checkpoints for exact restart.
//!
//! A checkpoint captures everything a rank needs to resume bit-identically:
//! the interior cells of φ and µ (ghosts are re-synchronized at the start
//! of every step, so they carry no information), the step count, the Philox
//! counter state (seed + timestep — the RNG is stateless, §3.3), a
//! fingerprint of the model parameters, and the block metadata of the
//! domain decomposition so a restart can verify it is resuming the same
//! partitioning.
//!
//! One container (little-endian) holds both kinds of file:
//!
//! ```text
//! magic        8 B   "PFCKPT01"
//! version      u32   1 = full snapshot, 2 = increment
//! params_fp    u64   FNV-1a fingerprint of ModelParams
//! step         u64
//! seed         u32   Philox key half of the counter state
//! phi_variant  u8    0 = Full, 1 = Split
//! mu_variant   u8
//! bc           3×u8  0 = Periodic, 1 = Neumann
//! rank         u32   │
//! nranks       u32   │ block metadata from the
//! grid         3×u32 │ Decomposition
//! global       3×u64 │
//! origin       3×i64
//! shape        3×u64 local interior extent
//! phases       u32
//! num_mu       u32
//! rows         version 1: every row, untagged
//!              version 2: base_step u64, row count u64, then per row
//!                         field u8 (0 = φ, 1 = µ), comp u32, y u32, z u32
//!                         and the row
//! checksum     u64   FNV-1a over every preceding byte
//! ```
//!
//! A *row* is the `shape[0]` x-values (f64 bits) of one `(field,
//! component, z, y)`; "every row" is φ then µ in
//! [`pf_fields::FieldArray::read_box`] order of the interior. A full
//! snapshot carries them all; an increment names the step of the set it
//! applies on top of and carries only the rows whose bits changed since —
//! phase-field fronts touch a thin shell of cells per step, so far-field
//! slabs drop out. [`parse`] reads either; restoring stages the rows a file
//! carries over the state it applies to and commits only when the whole
//! file was valid. [`decode_into`] accepts full snapshots only and refuses
//! an increment with [`CheckpointError::UnsupportedVersion`];
//! [`load_chain`] walks a rank file's base links back to the newest full
//! snapshot and replays the increments forward.
//!
//! Files are written atomically (`.tmp` then rename), so a crash mid-write
//! never leaves a file that parses. Every decode failure is a typed
//! [`CheckpointError`]; corrupt input is rejected, never panicked on.
//!
//! Distributed runs write one file per rank into a per-step set directory,
//! `<root>/step_<NNNNNNNN>/rank_<RRRR>.ckpt`; a set is *complete* once all
//! `nranks` files exist, and restart resumes from the newest complete set.

use crate::bytes::{seal, unseal, Fnv, Reader, Short};
use crate::params::ModelParams;
use crate::sim::{BcKind, Simulation, Variant};
use pf_rng::CounterState;
use std::fmt;
use std::path::{Path, PathBuf};

pub const MAGIC: [u8; 8] = *b"PFCKPT01";
/// Format version of full snapshots.
pub const VERSION: u32 = 1;
/// Format version of incremental (dirty-row delta) checkpoint files.
pub const VERSION_INCREMENTAL: u32 = 2;

/// Everything that can go wrong reading or writing a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    Io(std::io::Error),
    BadMagic,
    UnsupportedVersion(u32),
    /// The file ends before the format says it should.
    Truncated,
    ChecksumMismatch,
    /// The checkpoint was written by a run with different model parameters.
    ParamsMismatch {
        expected: u64,
        found: u64,
    },
    /// Structurally valid but belongs to a different run setup (shape,
    /// decomposition, kernel variants, boundary conditions, or seed).
    Incompatible(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::BadMagic => write!(f, "not a pf checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported checkpoint version {v} (expected {VERSION}, a full \
                     snapshot, or {VERSION_INCREMENTAL}, an increment)"
                )
            }
            CheckpointError::Truncated => write!(f, "checkpoint file is truncated"),
            CheckpointError::ChecksumMismatch => write!(f, "checkpoint checksum mismatch"),
            CheckpointError::ParamsMismatch { expected, found } => write!(
                f,
                "checkpoint written with different model parameters \
                 (fingerprint {found:#018x}, expected {expected:#018x})"
            ),
            CheckpointError::Incompatible(why) => {
                write!(f, "checkpoint incompatible with this run: {why}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<Short> for CheckpointError {
    fn from(_: Short) -> Self {
        CheckpointError::Truncated
    }
}

/// Block metadata stamped into each rank's file so a restart can verify it
/// is resuming the same decomposition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankMeta {
    pub rank: u32,
    pub nranks: u32,
    /// Rank grid of the decomposition.
    pub grid: [u32; 3],
    /// Global domain extent.
    pub global: [u64; 3],
}

impl RankMeta {
    /// Metadata of an undecomposed single-block run.
    pub fn single(global: [usize; 3]) -> Self {
        RankMeta {
            rank: 0,
            nranks: 1,
            grid: [1, 1, 1],
            global: [global[0] as u64, global[1] as u64, global[2] as u64],
        }
    }
}

/// Decoded header of a checkpoint file (payload not included).
#[derive(Clone, Debug)]
pub struct CheckpointHeader {
    pub version: u32,
    pub params_fp: u64,
    pub step: u64,
    pub rng: CounterState,
    pub phi_variant: Variant,
    pub mu_variant: Variant,
    pub bc: [BcKind; 3],
    pub meta: RankMeta,
    pub origin: [i64; 3],
    pub shape: [usize; 3],
    pub phases: usize,
    pub num_mu: usize,
}

/// Order-sensitive FNV-1a fingerprint over every field of [`ModelParams`].
/// Any change to the physics configuration changes the fingerprint, which
/// is how a restart refuses a checkpoint from a different model.
pub fn params_fingerprint(p: &ModelParams) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(p.name.len() as u64);
    h.write(p.name.as_bytes());
    for v in [p.phases, p.components, p.dim, p.liquid_phase] {
        h.write_u64(v as u64);
    }
    for v in [
        p.dx,
        p.dt,
        p.eps,
        p.gamma_third,
        p.fluctuation_amplitude,
        p.eta,
    ] {
        h.write_f64(v);
    }
    for matrix in [&p.gamma, &p.tau, &p.a_coeff] {
        h.write_u64(matrix.len() as u64);
        for row in matrix.iter() {
            h.write_u64(row.len() as u64);
            for &v in row {
                h.write_f64(v);
            }
        }
    }
    h.write_u64(p.diffusivity.len() as u64);
    for &v in &p.diffusivity {
        h.write_f64(v);
    }
    h.write_u64(p.b_coeff.len() as u64);
    for row in &p.b_coeff {
        h.write_u64(row.len() as u64);
        for &(b0, b1) in row {
            h.write_f64(b0);
            h.write_f64(b1);
        }
    }
    h.write_u64(p.c_coeff.len() as u64);
    for &(c0, c1) in &p.c_coeff {
        h.write_f64(c0);
        h.write_f64(c1);
    }
    match p.anisotropy {
        None => h.write_u64(0),
        Some(d) => {
            h.write_u64(1);
            h.write_f64(d);
        }
    }
    h.write_u64(p.orientation.len() as u64);
    for &v in &p.orientation {
        h.write_f64(v);
    }
    for v in [
        p.temperature.t0,
        p.temperature.gradient,
        p.temperature.velocity,
    ] {
        h.write_f64(v);
    }
    h.write_u64(p.antitrapping as u64);
    h.finish()
}

// ---------------------------------------------------------------------------
// Byte-level encode/decode
// ---------------------------------------------------------------------------

fn bc_code(b: BcKind) -> u8 {
    match b {
        BcKind::Periodic => 0,
        BcKind::Neumann => 1,
    }
}

fn bc_from(code: u8) -> Result<BcKind, CheckpointError> {
    match code {
        0 => Ok(BcKind::Periodic),
        1 => Ok(BcKind::Neumann),
        other => Err(CheckpointError::Incompatible(format!(
            "unknown boundary-condition code {other}"
        ))),
    }
}

/// The interiors as of the last checkpoint written — the diff base for
/// incremental writes. One per rank, refreshed after every successful
/// write (full or incremental).
#[derive(Clone)]
pub struct IncrementalBase {
    /// Step the base state corresponds to; a set for it exists on disk.
    pub step: u64,
    /// φ then µ, each every row in payload order.
    fields: [Vec<f64>; 2],
}

impl IncrementalBase {
    /// Snapshot `sim`'s interiors in payload order.
    pub fn capture(sim: &Simulation) -> Self {
        IncrementalBase {
            step: sim.step_count,
            fields: [sim.phi().read_interior(), sim.mu().read_interior()],
        }
    }
}

/// Serialize a simulation's restart state as a full snapshot.
pub fn encode(sim: &Simulation, meta: &RankMeta) -> Vec<u8> {
    encode_rows(sim, meta, None).0
}

/// Serialize the dirty rows of `sim` relative to `base` as an increment. A
/// row is written only when its bits differ from the base, so the
/// untouched far field costs nothing.
pub fn encode_incremental(sim: &Simulation, meta: &RankMeta, base: &IncrementalBase) -> Vec<u8> {
    encode_rows(sim, meta, Some(base)).0
}

/// The file for `sim`'s state — an increment over `base` when there is one,
/// else a full snapshot — and that state as the next write's diff base.
fn encode_rows(
    sim: &Simulation,
    meta: &RankMeta,
    base: Option<&IncrementalBase>,
) -> (Vec<u8>, IncrementalBase) {
    let shape = sim.cfg.shape;
    let captured = IncrementalBase::capture(sim);
    let now = &captured.fields;
    let mut out = Vec::with_capacity(128 + 8 * (now[0].len() + now[1].len()));
    out.extend_from_slice(&MAGIC);
    let version = base.map_or(VERSION, |_| VERSION_INCREMENTAL);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&params_fingerprint(&sim.params).to_le_bytes());
    out.extend_from_slice(&sim.step_count.to_le_bytes());
    out.extend_from_slice(&sim.cfg.seed.to_le_bytes());
    out.push(sim.cfg.phi_variant.code());
    out.push(sim.cfg.mu_variant.code());
    for d in 0..3 {
        out.push(bc_code(sim.cfg.bc[d]));
    }
    out.extend_from_slice(&meta.rank.to_le_bytes());
    out.extend_from_slice(&meta.nranks.to_le_bytes());
    for d in 0..3 {
        out.extend_from_slice(&meta.grid[d].to_le_bytes());
    }
    for d in 0..3 {
        out.extend_from_slice(&meta.global[d].to_le_bytes());
    }
    for d in 0..3 {
        out.extend_from_slice(&sim.origin[d].to_le_bytes());
    }
    for s in shape {
        out.extend_from_slice(&(s as u64).to_le_bytes());
    }
    out.extend_from_slice(&(sim.params.phases as u32).to_le_bytes());
    out.extend_from_slice(&(sim.params.num_mu() as u32).to_le_bytes());

    // Every row of a full snapshot; of an increment, after the base step
    // and the row count, the tagged rows whose bits left the base's.
    let [nx, ny, nz] = shape;
    let count_at = out.len() + 8;
    if let Some(base) = base {
        out.extend_from_slice(&base.step.to_le_bytes());
        out.extend_from_slice(&0u64.to_le_bytes());
    }
    let (mut written, mut clean) = (0u64, 0u64);
    for (f, vals) in now.iter().enumerate() {
        for (k, row) in vals.chunks(nx).enumerate() {
            if let Some(base) = base {
                let was = &base.fields[f][k * nx..(k + 1) * nx];
                if row.iter().zip(was).all(|(a, b)| a.to_bits() == b.to_bits()) {
                    clean += 1;
                    continue;
                }
                out.push(f as u8);
                for tag in [k / (ny * nz), k % ny, k / ny % nz] {
                    out.extend_from_slice(&(tag as u32).to_le_bytes());
                }
            }
            written += 1;
            for v in row {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
    }
    if base.is_some() {
        out[count_at..count_at + 8].copy_from_slice(&written.to_le_bytes());
        pf_trace::counter("checkpoint.incremental.dirty_rows").incr(written);
        pf_trace::counter("checkpoint.incremental.clean_rows").incr(clean);
    }
    seal(&mut out);
    (out, captured)
}

/// What a checkpoint file carries after its header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Every row.
    Full,
    /// The rows that changed since the set at `base_step`.
    Increment { base_step: u64 },
}

/// A checkpoint file whose checksum held and whose header decoded.
#[derive(Clone, Debug)]
pub struct Parsed {
    pub header: CheckpointHeader,
    pub kind: Kind,
    /// Where the rows start in the bytes [`parse`] was given.
    rows_at: usize,
}

impl Parsed {
    /// This file if it is of format `version`, else the typed refusal.
    fn only(self, version: u32) -> Result<Parsed, CheckpointError> {
        if self.header.version == version {
            Ok(self)
        } else {
            Err(CheckpointError::UnsupportedVersion(self.header.version))
        }
    }
}

/// Checksum-verify raw file bytes and decode everything before the rows.
pub fn parse(bytes: &[u8]) -> Result<Parsed, CheckpointError> {
    let body = unseal(bytes)?.ok_or(CheckpointError::ChecksumMismatch)?;
    let mut r = Reader::new(body);
    if r.take(8)? != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = r.u32()?;
    if version != VERSION && version != VERSION_INCREMENTAL {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let params_fp = r.u64()?;
    let step = r.u64()?;
    let seed = r.u32()?;
    let variant = |code: u8| {
        Variant::from_code(code).ok_or_else(|| {
            CheckpointError::Incompatible(format!("unknown kernel variant code {code}"))
        })
    };
    let phi_variant = variant(r.u8()?)?;
    let mu_variant = variant(r.u8()?)?;
    let bc = [bc_from(r.u8()?)?, bc_from(r.u8()?)?, bc_from(r.u8()?)?];
    let rank = r.u32()?;
    let nranks = r.u32()?;
    let grid = [r.u32()?, r.u32()?, r.u32()?];
    let global = [r.u64()?, r.u64()?, r.u64()?];
    let origin = [r.i64()?, r.i64()?, r.i64()?];
    let shape_u = [r.u64()?, r.u64()?, r.u64()?];
    let phases = r.u32()? as usize;
    let num_mu = r.u32()? as usize;
    let mut shape = [0usize; 3];
    for d in 0..3 {
        shape[d] = usize::try_from(shape_u[d])
            .map_err(|_| CheckpointError::Incompatible("shape overflows usize".into()))?;
    }
    let kind = if version == VERSION {
        Kind::Full
    } else {
        Kind::Increment {
            base_step: r.u64()?,
        }
    };
    let header = CheckpointHeader {
        version,
        params_fp,
        step,
        rng: CounterState::new(seed, step),
        phi_variant,
        mu_variant,
        bc,
        meta: RankMeta {
            rank,
            nranks,
            grid,
            global,
        },
        origin,
        shape,
        phases,
        num_mu,
    };
    Ok(Parsed {
        header,
        kind,
        rows_at: r.pos(),
    })
}

/// Parse and checksum-verify a full snapshot's header from raw file bytes.
pub fn parse_header(bytes: &[u8]) -> Result<CheckpointHeader, CheckpointError> {
    Ok(parse(bytes)?.only(VERSION)?.header)
}

/// Read and verify only the header of a full-snapshot file.
pub fn read_header(path: &Path) -> Result<CheckpointHeader, CheckpointError> {
    parse_header(&std::fs::read(path)?)
}

/// Format version of checksummed checkpoint bytes.
pub fn peek_version(bytes: &[u8]) -> Result<u32, CheckpointError> {
    Ok(parse(bytes)?.header.version)
}

/// The base step an incremental file applies on top of.
pub fn incremental_base_step(bytes: &[u8]) -> Result<u64, CheckpointError> {
    match parse(bytes)?.kind {
        Kind::Increment { base_step } => Ok(base_step),
        Kind::Full => Err(CheckpointError::UnsupportedVersion(VERSION)),
    }
}

/// Restore a simulation from full-snapshot bytes. `sim` must be configured
/// identically to the writer (shape, variants, boundary conditions, seed,
/// parameters); every divergence is a typed error, and `sim` is untouched
/// on failure. On success the field interiors, step count, and origin are
/// loaded — ghost cells are left stale because every step begins by
/// re-synchronizing them.
pub fn decode_into(
    sim: &mut Simulation,
    meta: &RankMeta,
    bytes: &[u8],
) -> Result<(), CheckpointError> {
    restore(sim, meta, &parse(bytes)?.only(VERSION)?, bytes)
}

/// Apply an increment on top of the state `sim` currently holds, which
/// must be the increment's base (`sim.step_count == base_step`). Every
/// failure is typed and leaves `sim` unchanged.
pub fn apply_incremental(
    sim: &mut Simulation,
    meta: &RankMeta,
    bytes: &[u8],
) -> Result<(), CheckpointError> {
    restore(sim, meta, &parse(bytes)?.only(VERSION_INCREMENTAL)?, bytes)
}

/// Load the rows `bytes` (which `p` was parsed from) carries into `sim`:
/// every row of a full snapshot, the tagged rows of an increment. They are
/// staged over a copy of the interiors and committed only once the whole
/// file was valid, so a short or malformed file cannot leave `sim`
/// half-restored.
fn restore(
    sim: &mut Simulation,
    meta: &RankMeta,
    p: &Parsed,
    bytes: &[u8],
) -> Result<(), CheckpointError> {
    let h = &p.header;
    check_compat(sim, meta, h)?;
    let [nx, ny, nz] = h.shape;
    let comps = [h.phases, h.num_mu];
    let rows = &bytes[p.rows_at..bytes.len() - 8];
    let mut r = Reader::new(rows);
    let mut staged = IncrementalBase::capture(sim).fields;
    let mut stage = |r: &mut Reader<'_>, f: usize, k: usize| -> Result<(), Short> {
        for slot in &mut staged[f][k * nx..(k + 1) * nx] {
            *slot = r.f64()?;
        }
        Ok(())
    };
    match p.kind {
        Kind::Full => {
            for (f, n) in comps.into_iter().enumerate() {
                for k in 0..n * ny * nz {
                    stage(&mut r, f, k)?;
                }
            }
        }
        Kind::Increment { base_step } => {
            if base_step >= h.step {
                return Err(CheckpointError::Incompatible(format!(
                    "increment at step {} does not advance its base step {base_step}",
                    h.step
                )));
            }
            if sim.step_count != base_step {
                return Err(CheckpointError::Incompatible(format!(
                    "increment applies on top of step {base_step} but the simulation holds \
                     step {}",
                    sim.step_count
                )));
            }
            for _ in 0..r.u64()? {
                let f = r.u8()? as usize;
                let (comp, y, z) = (r.u32()? as usize, r.u32()? as usize, r.u32()? as usize);
                if f >= 2 || comp >= comps[f] || y >= ny || z >= nz {
                    return Err(CheckpointError::Incompatible(format!(
                        "incremental row ({f},{comp},{y},{z}) outside block {:?}",
                        h.shape
                    )));
                }
                stage(&mut r, f, (comp * nz + z) * ny + y)?;
            }
        }
    }
    if r.pos() != rows.len() {
        return Err(CheckpointError::Incompatible(
            "trailing bytes after the rows".into(),
        ));
    }

    sim.step_count = h.step;
    sim.origin = h.origin;
    let fields = sim.kernels.fields;
    for (field, vals) in [fields.phi_src, fields.mu_src].into_iter().zip(&staged) {
        let arr = sim.store.get_mut(field);
        arr.write_box(arr.interior(), vals);
    }
    Ok(())
}

/// Reject a structurally valid header that belongs to a different run
/// setup.
fn check_compat(
    sim: &Simulation,
    meta: &RankMeta,
    h: &CheckpointHeader,
) -> Result<(), CheckpointError> {
    let expected_fp = params_fingerprint(&sim.params);
    if h.params_fp != expected_fp {
        return Err(CheckpointError::ParamsMismatch {
            expected: expected_fp,
            found: h.params_fp,
        });
    }
    let incompat = |why: String| Err(CheckpointError::Incompatible(why));
    if h.shape != sim.cfg.shape {
        return incompat(format!(
            "block shape {:?} != configured {:?}",
            h.shape, sim.cfg.shape
        ));
    }
    if h.meta != *meta {
        return incompat(format!("decomposition {:?} != expected {:?}", h.meta, meta));
    }
    if (h.phi_variant, h.mu_variant) != (sim.cfg.phi_variant, sim.cfg.mu_variant) {
        return incompat(format!(
            "kernel variants ({:?},{:?}) != configured ({:?},{:?})",
            h.phi_variant, h.mu_variant, sim.cfg.phi_variant, sim.cfg.mu_variant
        ));
    }
    if h.bc != sim.cfg.bc {
        return incompat(format!(
            "boundary conditions {:?} != {:?}",
            h.bc, sim.cfg.bc
        ));
    }
    if h.rng.seed != sim.cfg.seed {
        return incompat(format!(
            "seed {} != configured {}",
            h.rng.seed, sim.cfg.seed
        ));
    }
    if h.phases != sim.params.phases || h.num_mu != sim.params.num_mu() {
        return incompat(format!(
            "field counts ({}, {}) != model ({}, {})",
            h.phases,
            h.num_mu,
            sim.params.phases,
            sim.params.num_mu()
        ));
    }
    Ok(())
}

/// Restore `sim` from the rank file at `step`, following incremental base
/// links back to the newest full snapshot and replaying the deltas
/// forward. Returns the number of increments applied (0 = the file was a
/// full snapshot). Every link is read and parsed once, all of them before
/// `sim` is touched; errors are typed, and a broken link in the chain
/// surfaces as the underlying I/O or format error.
pub fn load_chain(
    sim: &mut Simulation,
    meta: &RankMeta,
    root: &Path,
    step: u64,
    rank: usize,
) -> Result<usize, CheckpointError> {
    let mut chain: Vec<(Vec<u8>, Parsed)> = Vec::new();
    let mut cur = step;
    loop {
        let bytes = std::fs::read(rank_file(root, cur, rank))?;
        let p = parse(&bytes)?;
        let kind = p.kind;
        chain.push((bytes, p));
        match kind {
            Kind::Full => break,
            Kind::Increment { base_step } if base_step < cur => cur = base_step,
            Kind::Increment { base_step } => {
                return Err(CheckpointError::Incompatible(format!(
                    "increment at step {cur} names a non-preceding base step {base_step}"
                )))
            }
        }
    }
    for (bytes, p) in chain.iter().rev() {
        restore(sim, meta, p, bytes)?;
    }
    Ok(chain.len() - 1)
}

// ---------------------------------------------------------------------------
// Files and checkpoint sets
// ---------------------------------------------------------------------------

/// Write `bytes` to `path` atomically: a sibling `.tmp` file is written in
/// full, then renamed over the target, so readers never observe a partial
/// checkpoint.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut tmp_name = path
        .file_name()
        .ok_or_else(|| {
            CheckpointError::Io(std::io::Error::other("checkpoint path has no file name"))
        })?
        .to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Write `sim`'s next checkpoint to `path` atomically — an increment over
/// `base` when there is one, else a full snapshot — and return the state
/// written as the diff base for the write after it.
pub fn save_over(
    sim: &Simulation,
    meta: &RankMeta,
    base: Option<&IncrementalBase>,
    path: &Path,
) -> Result<IncrementalBase, CheckpointError> {
    let _span = pf_trace::span(match base {
        Some(_) => "checkpoint.save_incremental",
        None => "checkpoint.save",
    });
    let (bytes, written) = encode_rows(sim, meta, base);
    pf_trace::counter("checkpoint.bytes_written").incr(bytes.len() as u64);
    if base.is_some() {
        pf_trace::counter("checkpoint.incremental_writes").incr(1);
    }
    write_atomic(path, &bytes)?;
    Ok(written)
}

/// Save a full snapshot of `sim` to `path` (atomic write).
pub fn save(sim: &Simulation, meta: &RankMeta, path: &Path) -> Result<(), CheckpointError> {
    save_over(sim, meta, None, path).map(drop)
}

/// Save an increment over `base` to `path` (atomic write).
pub fn save_incremental(
    sim: &Simulation,
    meta: &RankMeta,
    base: &IncrementalBase,
    path: &Path,
) -> Result<(), CheckpointError> {
    save_over(sim, meta, Some(base), path).map(drop)
}

/// Restore a simulation from `path` (see [`decode_into`] for the checks).
pub fn load(sim: &mut Simulation, meta: &RankMeta, path: &Path) -> Result<(), CheckpointError> {
    decode_into(sim, meta, &std::fs::read(path)?)
}

/// Directory holding one step's per-rank checkpoint set.
pub fn set_dir(root: &Path, step: u64) -> PathBuf {
    root.join(format!("step_{step:08}"))
}

/// One rank's file within a checkpoint set.
pub fn rank_file(root: &Path, step: u64, rank: usize) -> PathBuf {
    set_dir(root, step).join(format!("rank_{rank:04}.ckpt"))
}

/// The newest step under `root` for which all `nranks` rank files exist.
/// Partial sets (a crash mid-checkpoint) are skipped.
pub fn latest_complete_set(root: &Path, nranks: usize) -> Option<u64> {
    let entries = std::fs::read_dir(root).ok()?;
    let mut steps: Vec<u64> = entries
        .flatten()
        .filter_map(|e| {
            e.file_name()
                .to_str()?
                .strip_prefix("step_")?
                .parse::<u64>()
                .ok()
        })
        .collect();
    steps.sort_unstable();
    steps
        .into_iter()
        .rev()
        .find(|&step| (0..nranks).all(|r| rank_file(root, step, r).is_file()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::generate_kernels;
    use crate::sim::SimConfig;
    use pf_ir::GenOptions;

    fn mini_sim() -> Simulation {
        let p = crate::kernels::tests::mini_model();
        let ks = generate_kernels(&p, &GenOptions::default());
        let mut cfg = SimConfig::new([8, 6, 1]);
        cfg.bc = [BcKind::Periodic; 3];
        let mut sim = Simulation::new(p, ks, cfg);
        sim.init_phi(|x, y, _| {
            let solid = if (x + y) % 3 == 0 { 0.8 } else { 0.1 };
            vec![1.0 - solid, solid]
        });
        sim.init_mu(|x, _, _| vec![0.01 * x as f64]);
        sim
    }

    #[test]
    fn encode_decode_round_trip_is_bitwise() {
        let mut sim = mini_sim();
        sim.run_steps(3);
        let meta = RankMeta::single(sim.cfg.shape);
        let bytes = encode(&sim, &meta);

        let mut fresh = mini_sim();
        decode_into(&mut fresh, &meta, &bytes).expect("round trip");
        assert_eq!(fresh.step_count, 3);
        assert_eq!(fresh.phi().max_abs_diff(sim.phi()), 0.0);
        assert_eq!(fresh.mu().max_abs_diff(sim.mu()), 0.0);
        // Re-encoding the restored state reproduces the same bytes.
        assert_eq!(encode(&fresh, &meta), bytes);
    }

    #[test]
    fn header_reports_counter_state() {
        let mut sim = mini_sim();
        sim.run_steps(2);
        let meta = RankMeta::single(sim.cfg.shape);
        let h = parse_header(&encode(&sim, &meta)).expect("header");
        assert_eq!(h.rng, CounterState::new(sim.cfg.seed, 2));
        assert_eq!(h.shape, sim.cfg.shape);
        assert_eq!(h.meta, meta);
    }

    #[test]
    fn truncation_and_corruption_are_typed_errors() {
        let sim = mini_sim();
        let meta = RankMeta::single(sim.cfg.shape);
        let bytes = encode(&sim, &meta);

        let mut fresh = mini_sim();
        for cut in [0, 4, 17, bytes.len() / 2, bytes.len() - 1] {
            match decode_into(&mut fresh, &meta, &bytes[..cut]) {
                Err(CheckpointError::Truncated | CheckpointError::ChecksumMismatch) => {}
                other => panic!("truncated at {cut}: unexpected {other:?}"),
            }
        }
        let mut flipped = bytes.clone();
        flipped[40] ^= 0x01;
        assert!(matches!(
            decode_into(&mut fresh, &meta, &flipped),
            Err(CheckpointError::ChecksumMismatch)
        ));
        // Too short for even a checksum → Truncated; checksum-valid bytes
        // with a foreign magic → BadMagic.
        assert!(matches!(
            decode_into(&mut fresh, &meta, b"short"),
            Err(CheckpointError::Truncated)
        ));
        let mut wrong_magic = bytes[..bytes.len() - 8].to_vec();
        wrong_magic[..8].copy_from_slice(b"NOTACKPT");
        let mut h = Fnv::new();
        h.write(&wrong_magic);
        wrong_magic.extend_from_slice(&h.finish().to_le_bytes());
        assert!(matches!(
            decode_into(&mut fresh, &meta, &wrong_magic),
            Err(CheckpointError::BadMagic)
        ));
    }

    #[test]
    fn wrong_params_or_meta_are_rejected() {
        let sim = mini_sim();
        let meta = RankMeta::single(sim.cfg.shape);
        let bytes = encode(&sim, &meta);

        let mut other = mini_sim();
        other.params.dt *= 2.0;
        assert!(matches!(
            decode_into(&mut other, &meta, &bytes),
            Err(CheckpointError::ParamsMismatch { .. })
        ));

        let mut fresh = mini_sim();
        let wrong_meta = RankMeta {
            rank: 1,
            nranks: 4,
            ..meta
        };
        assert!(matches!(
            decode_into(&mut fresh, &wrong_meta, &bytes),
            Err(CheckpointError::Incompatible(_))
        ));
    }

    #[test]
    fn fingerprint_tracks_every_field_class() {
        let p = crate::kernels::tests::mini_model();
        let base = params_fingerprint(&p);
        let mut q = p.clone();
        q.gamma[0][1] += 1e-9;
        assert_ne!(base, params_fingerprint(&q));
        let mut q = p.clone();
        q.anisotropy = Some(0.1);
        assert_ne!(base, params_fingerprint(&q));
        let mut q = p.clone();
        q.temperature.gradient += 0.5;
        assert_ne!(base, params_fingerprint(&q));
        assert_eq!(base, params_fingerprint(&p.clone()));
    }

    #[test]
    fn incremental_round_trip_is_bitwise() {
        let mut sim = mini_sim();
        sim.run_steps(2);
        let meta = RankMeta::single(sim.cfg.shape);
        let full = encode(&sim, &meta);
        let base = IncrementalBase::capture(&sim);
        sim.run_steps(2);
        let delta = encode_incremental(&sim, &meta, &base);

        let mut fresh = mini_sim();
        decode_into(&mut fresh, &meta, &full).expect("full restore");
        apply_incremental(&mut fresh, &meta, &delta).expect("delta restore");
        assert_eq!(fresh.step_count, 4);
        assert_eq!(fresh.phi().max_abs_diff(sim.phi()), 0.0);
        assert_eq!(fresh.mu().max_abs_diff(sim.mu()), 0.0);
        // Re-encoding the restored state reproduces the writer's bytes.
        assert_eq!(encode(&fresh, &meta), encode(&sim, &meta));
    }

    #[test]
    fn version_one_readers_reject_increments_with_a_typed_error() {
        let mut sim = mini_sim();
        sim.run_steps(1);
        let meta = RankMeta::single(sim.cfg.shape);
        let base = IncrementalBase::capture(&sim);
        sim.run_steps(1);
        let delta = encode_incremental(&sim, &meta, &base);

        let mut fresh = mini_sim();
        assert!(matches!(
            decode_into(&mut fresh, &meta, &delta),
            Err(CheckpointError::UnsupportedVersion(VERSION_INCREMENTAL))
        ));
        assert!(matches!(
            parse_header(&delta),
            Err(CheckpointError::UnsupportedVersion(VERSION_INCREMENTAL))
        ));
        // And the untouched reader leaves the simulation alone.
        assert_eq!(fresh.step_count, 0);
    }

    #[test]
    fn a_clean_state_produces_an_empty_delta() {
        let mut sim = mini_sim();
        sim.run_steps(2);
        let meta = RankMeta::single(sim.cfg.shape);
        let full = encode(&sim, &meta);
        let base = IncrementalBase::capture(&sim);
        // No steps in between: every row is clean, but the step count must
        // still advance for the delta to be applicable — so fake one step
        // of pure bookkeeping.
        sim.step_count += 1;
        let delta = encode_incremental(&sim, &meta, &base);
        assert!(
            delta.len() < 200,
            "empty delta should be header-sized, got {}",
            delta.len()
        );
        assert!(delta.len() < full.len() / 4);

        let mut fresh = mini_sim();
        decode_into(&mut fresh, &meta, &full).expect("full restore");
        apply_incremental(&mut fresh, &meta, &delta).expect("empty delta");
        assert_eq!(fresh.step_count, sim.step_count);
        assert_eq!(fresh.phi().max_abs_diff(sim.phi()), 0.0);
    }

    #[test]
    fn incremental_corruption_and_misapplication_are_typed_errors() {
        let mut sim = mini_sim();
        sim.run_steps(1);
        let meta = RankMeta::single(sim.cfg.shape);
        let full = encode(&sim, &meta);
        let base = IncrementalBase::capture(&sim);
        sim.run_steps(1);
        let delta = encode_incremental(&sim, &meta, &base);

        let mut fresh = mini_sim();
        let mut flipped = delta.clone();
        flipped[60] ^= 0x80;
        assert!(matches!(
            apply_incremental(&mut fresh, &meta, &flipped),
            Err(CheckpointError::ChecksumMismatch)
        ));
        for cut in [0, 9, delta.len() / 2, delta.len() - 1] {
            assert!(matches!(
                apply_incremental(&mut fresh, &meta, &delta[..cut]),
                Err(CheckpointError::Truncated | CheckpointError::ChecksumMismatch)
            ));
        }
        // Applying on top of the wrong base step is refused and leaves the
        // simulation untouched.
        decode_into(&mut fresh, &meta, &full).expect("full restore");
        fresh.step_count += 7;
        let before = encode(&fresh, &meta);
        assert!(matches!(
            apply_incremental(&mut fresh, &meta, &delta),
            Err(CheckpointError::Incompatible(_))
        ));
        assert_eq!(encode(&fresh, &meta), before);
    }

    #[test]
    fn load_chain_replays_increments_back_to_the_full_snapshot() {
        let dir = std::env::temp_dir().join(format!("pfckpt_chain_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut sim = mini_sim();
        let meta = RankMeta::single(sim.cfg.shape);

        sim.run_steps(2);
        save(&sim, &meta, &rank_file(&dir, 2, 0)).expect("full");
        let mut base = IncrementalBase::capture(&sim);
        for step in [4u64, 6] {
            sim.run_steps(2);
            save_incremental(&sim, &meta, &base, &rank_file(&dir, step, 0)).expect("incr");
            base = IncrementalBase::capture(&sim);
        }

        let mut fresh = mini_sim();
        let applied = load_chain(&mut fresh, &meta, &dir, 6, 0).expect("chain");
        assert_eq!(applied, 2);
        assert_eq!(fresh.step_count, 6);
        assert_eq!(fresh.phi().max_abs_diff(sim.phi()), 0.0);
        assert_eq!(fresh.mu().max_abs_diff(sim.mu()), 0.0);

        // A corrupt middle link is found before anything is restored.
        let middle = rank_file(&dir, 4, 0);
        let mut bytes = std::fs::read(&middle).unwrap();
        bytes[70] ^= 0x04;
        std::fs::write(&middle, &bytes).unwrap();
        let mut untouched = mini_sim();
        let before = encode(&untouched, &meta);
        assert!(matches!(
            load_chain(&mut untouched, &meta, &dir, 6, 0),
            Err(CheckpointError::ChecksumMismatch)
        ));
        assert_eq!(encode(&untouched, &meta), before);

        // A broken link (missing base file) is an error, not silence.
        std::fs::remove_dir_all(set_dir(&dir, 4)).unwrap();
        let mut broken = mini_sim();
        assert!(matches!(
            load_chain(&mut broken, &meta, &dir, 6, 0),
            Err(CheckpointError::Io(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Both formats, byte for byte: lengths and FNV-1a of a full snapshot
    /// and of an increment three steps after its base, computed at the
    /// commit before full and incremental files became one container.
    #[test]
    fn on_disk_bytes_are_pinned() {
        let fnv = |bytes: &[u8]| {
            let mut h = Fnv::new();
            h.write(bytes);
            h.finish()
        };
        let mut sim = mini_sim();
        sim.run_steps(2);
        let meta = RankMeta::single(sim.cfg.shape);
        let full = encode(&sim, &meta);
        let base = IncrementalBase::capture(&sim);
        sim.run_steps(3);
        let inc = encode_incremental(&sim, &meta, &base);
        assert_eq!((full.len(), fnv(&full)), (1297, 0x60b1_a88e_3edb_010e));
        assert_eq!((inc.len(), fnv(&inc)), (1547, 0x3251_746b_f30d_8832));
    }

    #[test]
    fn atomic_write_leaves_no_tmp_behind() {
        let sim = mini_sim();
        let meta = RankMeta::single(sim.cfg.shape);
        let dir = std::env::temp_dir().join(format!("pfckpt_test_{}", std::process::id()));
        let path = dir.join("a.ckpt");
        save(&sim, &meta, &path).expect("save");
        assert!(path.is_file());
        assert!(!path.with_file_name("a.ckpt.tmp").exists());
        let mut fresh = mini_sim();
        load(&mut fresh, &meta, &path).expect("load");
        assert_eq!(fresh.phi().max_abs_diff(sim.phi()), 0.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn latest_complete_set_skips_partial_sets() {
        let dir = std::env::temp_dir().join(format!("pfckpt_sets_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for (step, ranks) in [(10u64, 2usize), (20, 2), (30, 1)] {
            for r in 0..ranks {
                let f = rank_file(&dir, step, r);
                std::fs::create_dir_all(f.parent().unwrap()).unwrap();
                std::fs::write(&f, b"x").unwrap();
            }
        }
        // step 30 is partial (1 of 2 ranks) — the newest complete is 20.
        assert_eq!(latest_complete_set(&dir, 2), Some(20));
        assert_eq!(latest_complete_set(&dir, 1), Some(30));
        assert_eq!(latest_complete_set(&dir.join("missing"), 2), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
