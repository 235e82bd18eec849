//! Distributed-memory simulation driver (§4).
//!
//! Runs Algorithm 1 across ranks: each rank owns one block of the
//! decomposed domain, halo exchanges replace the single-block boundary
//! handling, and non-periodic physical boundaries are applied only where a
//! block touches the domain edge. The result is bit-identical to the
//! single-block run on the same global domain (asserted by the integration
//! tests), because the kernels, Philox counters, and coordinates are all
//! keyed on *global* cell indices.

use crate::checkpoint::{self, RankMeta};
use crate::kernels::KernelSet;
use crate::params::ModelParams;
use crate::sim::{BcKind, SimConfig, Simulation, Variant};
use crate::tune::Family;
use pf_grid::{
    begin_exchange_batched, finish_exchange_batched, run_ranks_with_faults, split_frontier,
    with_silenced_dead_rank_panics, BatchHandle, Comm, CommOptions, Decomposition, FaultPlan,
    DEAD_RANK_MARKER,
};
use pf_ir::Tape;
use pf_symbolic::Field;
use std::path::PathBuf;
use std::sync::Arc;

/// Periodic/final checkpointing of a distributed run.
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Root directory of the per-step checkpoint sets.
    pub dir: PathBuf,
    /// Write a set every `every` steps (0 = periodic checkpoints off).
    pub every: u64,
    /// Also write a set after the last step.
    pub final_checkpoint: bool,
    /// Before stepping, restore from the newest complete set under `dir`
    /// (start from the initial conditions if there is none).
    pub resume: bool,
    /// Consecutive dirty-row increments ([`checkpoint::save_incremental`])
    /// allowed before the next write is forced to be a full snapshot,
    /// bounding restore-chain length. The first write of a run, which has
    /// no base to diff against, is always full.
    pub full_every: u64,
}

impl CheckpointConfig {
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            dir: dir.into(),
            every: 0,
            final_checkpoint: true,
            resume: false,
            full_every: 4,
        }
    }

    pub fn every(mut self, steps: u64) -> Self {
        self.every = steps;
        self
    }

    pub fn resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    pub fn full_every(mut self, n: u64) -> Self {
        self.full_every = n;
        self
    }
}

/// Distributed run configuration.
#[derive(Clone, Debug)]
pub struct DistConfig {
    pub global: [usize; 3],
    pub ranks: usize,
    pub bc: [BcKind; 3],
    pub phi_variant: Variant,
    pub mu_variant: Variant,
    pub comm: CommOptions,
    pub seed: u32,
    pub checkpoint: Option<CheckpointConfig>,
    /// Message-fault/rank-kill injection for the whole world.
    pub faults: Option<FaultPlan>,
    /// Execution engine for every rank's kernels; `None` keeps each block's
    /// shape-based default. The engine is not part of the persistent state
    /// (all engines are bitwise identical), so a checkpointed run may
    /// resume under a different one.
    pub exec_mode: Option<pf_backend::ExecMode>,
    /// When `exec_mode` is `None`, consult the on-disk tuning cache
    /// ([`crate::tune::tuned_exec_mode`]) for each rank's block shape and
    /// run the measured-fastest engine on a warm hit. Engine-only — the
    /// bitwise-neutral knob — so a cache state can change speed but never
    /// results; `PF_TUNE=off` or a cold cache keeps the shape default.
    pub tune_exec: bool,
    /// Hierarchical (node × socket) decomposition: split `ranks` into
    /// `ranks / ranks_per_node` nodes refined by `ranks_per_node` ranks
    /// each ([`Decomposition::hierarchical`]). `None` keeps the flat
    /// surface-optimal grid. Mapping-only — the flat process grid is the
    /// product of both levels, so results stay bitwise identical.
    pub ranks_per_node: Option<usize>,
}

impl DistConfig {
    pub fn new(global: [usize; 3], ranks: usize) -> Self {
        DistConfig {
            global,
            ranks,
            bc: [BcKind::Periodic; 3],
            phi_variant: Variant::Full,
            mu_variant: Variant::Split,
            comm: CommOptions::default(),
            seed: 42,
            checkpoint: None,
            faults: None,
            exec_mode: None,
            tune_exec: true,
            ranks_per_node: None,
        }
    }

    /// The decomposition this configuration runs under: hierarchical when
    /// `ranks_per_node` is set, flat otherwise.
    pub fn decomposition(&self) -> Decomposition {
        match self.ranks_per_node {
            Some(rpn) => {
                assert!(
                    rpn >= 1 && self.ranks.is_multiple_of(rpn),
                    "{} ranks cannot split into nodes of {rpn}",
                    self.ranks
                );
                Decomposition::hierarchical(self.global, self.ranks / rpn, rpn, self.periodic())
            }
            None => Decomposition::new(self.global, self.ranks, self.periodic()),
        }
    }

    /// This run's block metadata for `rank`, as stamped into checkpoints.
    pub fn rank_meta(&self, dec: &Decomposition, rank: usize) -> RankMeta {
        RankMeta {
            rank: rank as u32,
            nranks: self.ranks as u32,
            grid: [dec.grid[0] as u32, dec.grid[1] as u32, dec.grid[2] as u32],
            global: [
                self.global[0] as u64,
                self.global[1] as u64,
                self.global[2] as u64,
            ],
        }
    }

    fn periodic(&self) -> [bool; 3] {
        [
            self.bc[0] == BcKind::Periodic,
            self.bc[1] == BcKind::Periodic,
            self.bc[2] == BcKind::Periodic,
        ]
    }
}

/// Which part of a phase's iteration range a sweep covers: the interior
/// reads no ghost layer a pending exchange still has to fill, the frontier
/// is the rest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Part {
    Interior,
    Frontier,
}

/// One operation of the distributed timestep. The list [`step_ops`] builds
/// is the single description of Algorithm 1 on a decomposed domain: the
/// rank loop interprets it, [`step_protocol_model`] lifts the very same
/// list into the model pf-analyze proves, and the frontier widths are
/// derived for exactly the sweeps it names.
#[derive(Clone, Debug, PartialEq)]
pub enum StepOp {
    /// Apply the physical boundaries of `fields`, complete their locally
    /// wrapped dimensions and post their halo sends. `epoch` is relative
    /// to the step's base epoch; field `i` owns offset `epoch + i`, which
    /// is where it is sent when batching is off.
    BeginExchange { fields: Vec<Field>, epoch: u64 },
    /// Complete the receives of every exchange begun and not yet finished.
    FinishExchange,
    /// Run the phase's tapes (fluxes before the update) over one part of
    /// their iteration range.
    Sweep {
        phase: Family,
        variant: Variant,
        part: Part,
    },
    /// Gibbs-simplex projection of φ_dst.
    Project,
    /// φ_src ↔ φ_dst, µ_src ↔ µ_dst.
    Swap,
}

/// Epochs one step consumes: step `n` stamps its messages `4 n + offset`.
const EPOCH_STRIDE: u64 = 4;

/// The op list of one distributed timestep (§4.3). With `overlap` each
/// phase's interior is swept between the begin and the finish of the
/// exchange it depends on, so the messages travel behind it:
///
/// ```text
/// begin φ_src, µ_src → φ interior → finish → φ frontier → project
/// begin φ_dst        → µ interior → finish → µ frontier → swap
/// ```
///
/// Without it the window between begin and finish is empty and the whole
/// range of each phase is its frontier — same list, two sweeps fewer.
pub fn step_ops(
    f: &crate::model::ModelFields,
    phi_variant: Variant,
    mu_variant: Variant,
    overlap: bool,
) -> Vec<StepOp> {
    let phase_ops = |fields: Vec<Field>, epoch: u64, phase: Family, variant: Variant| {
        let sweep = |part: Part| StepOp::Sweep {
            phase,
            variant,
            part,
        };
        let mut ops = vec![StepOp::BeginExchange { fields, epoch }];
        if overlap {
            ops.push(sweep(Part::Interior));
        }
        ops.extend([StepOp::FinishExchange, sweep(Part::Frontier)]);
        ops
    };
    let mut ops = phase_ops(vec![f.phi_src, f.mu_src], 0, Family::Phi, phi_variant);
    ops.push(StepOp::Project);
    ops.extend(phase_ops(vec![f.phi_dst], 2, Family::Mu, mu_variant));
    ops.push(StepOp::Swap);
    ops
}

/// Exchanged (cell-centred) fields a phase's tapes load with nonzero ghost
/// reach, and the exchanged fields they store — the inputs of the
/// stale-ghost state machine. Staggered flux temporaries are block-local
/// (never exchanged) and excluded from both.
fn phase_comm_footprint(ks: &KernelSet, tapes: &[&Tape]) -> (Vec<String>, Vec<String>) {
    let stag = [ks.phi_split.stag_field, ks.mu_split.stag_field];
    let mut ghost_reads = std::collections::BTreeSet::new();
    let mut writes = std::collections::BTreeSet::new();
    for tape in tapes {
        let fp = pf_analyze::Footprint::of(tape);
        for (slot, f) in tape.fields.iter().enumerate() {
            if stag.contains(f) {
                continue;
            }
            if fp.required_ghost(slot, [0; 3]) > 0 {
                ghost_reads.insert(f.name());
            }
            if fp.per_field[slot].stores.is_some() {
                writes.insert(f.name());
            }
        }
    }
    (
        ghost_reads.into_iter().collect(),
        writes.into_iter().collect(),
    )
}

/// Lift an op list into pf-analyze's symbolic protocol model for one
/// divided-pattern — the only place that constructs `ProtoEvent`s. Each
/// field of a begin becomes its own exchange at its own epoch offset (the
/// unbatched wire protocol; batching merges the begins of one op into one
/// message at the first offset, which cannot break what holds for the
/// finer one), a finish completes every exchange in flight, and the
/// sweeps' communication footprints come from the real tapes' load/store
/// envelopes. `check_protocol` over the model proves send/recv pairing,
/// epoch discipline, deadlock-freedom and stale-ghost-freedom for *any*
/// rank count with the given pattern of divided dimensions (see
/// pf-analyze's protocol docs for why the pattern, not the rank count, is
/// the protocol's only degree of freedom).
pub fn step_protocol_model(
    ks: &KernelSet,
    ops: &[StepOp],
    dims: [pf_analyze::DimClass; 3],
) -> pf_analyze::ProtocolModel {
    use pf_analyze::ProtoEvent as E;
    let mut events = Vec::new();
    let mut in_flight: Vec<Field> = Vec::new();
    for op in ops {
        match op {
            StepOp::BeginExchange { fields, epoch } => {
                for (i, field) in fields.iter().enumerate() {
                    events.push(E::Begin {
                        field: field.name(),
                        // The wire tag's field part is one constant
                        // (pf-grid sends batches), so two exchanges must
                        // differ in their epochs.
                        field_tag: 0,
                        epoch: epoch + i as u64,
                    });
                }
                in_flight.extend(fields);
            }
            StepOp::FinishExchange => {
                events.extend(in_flight.drain(..).map(|f| E::Finish { field: f.name() }));
            }
            StepOp::Sweep {
                phase,
                variant,
                part,
            } => {
                let (ghost_reads, writes) = phase_comm_footprint(ks, &ks.tapes(*phase, *variant));
                events.push(match part {
                    Part::Interior => E::Interior { writes },
                    Part::Frontier => E::Frontier {
                        ghost_reads,
                        writes,
                    },
                });
            }
            StepOp::Project => events.push(E::Write {
                field: ks.fields.phi_dst.name(),
            }),
            // Renames the generations for the next step; no ghost is
            // read after it within this one.
            StepOp::Swap => {}
        }
    }
    let divided: Vec<String> = (0..3)
        .filter(|&d| dims[d].divided)
        .map(|d| d.to_string())
        .collect();
    pf_analyze::ProtocolModel {
        name: format!("dist_step[div={}]", divided.join("")),
        dims,
        epoch_stride: EPOCH_STRIDE,
        events,
    }
}

/// The protocol classes of a concrete decomposition, via pf-grid's pure
/// exchange-shape description (so the model's view of "divided" can never
/// drift from what the exchange actually does).
pub fn dim_classes(dec: &Decomposition) -> [pf_analyze::DimClass; 3] {
    let shape = pf_grid::exchange_shape(dec);
    [0, 1, 2].map(|d| pf_analyze::DimClass {
        divided: shape[d] == pf_grid::DimPhase::SendRecv,
        periodic: dec.periodic[d],
    })
}

/// Verify the comm protocol of the step the driver runs for these options
/// under **all** 2³ divided-patterns — a proof for every rank count and
/// decomposition at once. Returns every diagnostic found (empty = proven
/// sound).
pub fn verify_step_protocol(
    ks: &KernelSet,
    phi_variant: Variant,
    mu_variant: Variant,
    overlap: bool,
) -> Vec<pf_analyze::Diagnostic> {
    let ops = step_ops(&ks.fields, phi_variant, mu_variant, overlap);
    pf_analyze::all_dim_patterns()
        .into_iter()
        .flat_map(|dims| pf_analyze::check_protocol(&step_protocol_model(ks, &ops, dims)))
        .collect()
}

/// Frontier deferral widths of one kernel phase: how many cells from each
/// block face must wait for the halo receives.
#[derive(Clone, Copy, Debug)]
struct PhaseWidths {
    lo: [usize; 3],
    hi: [usize; 3],
}

impl PhaseWidths {
    /// Nothing runs before the receives: `split_frontier` turns this into
    /// an empty interior and one shell covering the whole range.
    const EVERYTHING: PhaseWidths = PhaseWidths {
        lo: [usize::MAX, 0, 0],
        hi: [0; 3],
    };
}

/// Widths derived from the pf-analyze load envelopes, maximized over the
/// phase's tapes (exact for a full kernel; for a split kernel the group
/// maximum also guarantees the flux interior produces every staggered
/// value the update interior re-reads, since the update's widths dominate
/// the fluxes').
fn phase_widths(p: &ModelParams, ks: &KernelSet, tapes: &[&Tape]) -> PhaseWidths {
    let mut w = PhaseWidths {
        lo: [0; 3],
        hi: [0; 3],
    };
    for tape in tapes {
        let allocs = crate::kernels::alloc_table(p, ks, tape);
        let (tl, th) = pf_analyze::frontier_widths(tape, &allocs);
        for d in 0..3 {
            w.lo[d] = w.lo[d].max(tl[d]);
            w.hi[d] = w.hi[d].max(th[d]);
        }
    }
    w
}

/// The spatial half of the overlap proof (the protocol model is the
/// temporal half): no interior cell of any tape may load a ghost layer.
/// This call is the only place `check_frontier` runs outside tests, so it
/// runs in every build, once per tape per plan.
fn assert_frontier_sound(p: &ModelParams, ks: &KernelSet, tapes: &[&Tape], w: PhaseWidths) {
    for tape in tapes {
        let allocs = crate::kernels::alloc_table(p, ks, tape);
        let diags = pf_analyze::check_frontier(tape, &allocs, w.lo, w.hi);
        assert!(
            diags.is_empty(),
            "overlap plan unsound for kernel '{}':\n{}",
            tape.name,
            pf_analyze::render(&diags)
        );
    }
}

/// What the rank loop runs each step: the op list and the interior /
/// frontier split of its sweeps. Built, and proved sound, once per run.
#[derive(Clone, Debug)]
pub(crate) struct StepPlan {
    ops: Vec<StepOp>,
    phi: PhaseWidths,
    mu: PhaseWidths,
}

pub(crate) fn build_step_plan(
    p: &ModelParams,
    ks: &KernelSet,
    cfg: &DistConfig,
    dec: &Decomposition,
) -> StepPlan {
    let ops = step_ops(
        &ks.fields,
        cfg.phi_variant,
        cfg.mu_variant,
        cfg.comm.overlap,
    );
    // The list about to be executed must be protocol-sound for this
    // decomposition's divided-pattern (cheap: a dozen events, no tapes).
    let mut proto = pf_analyze::check_protocol(&step_protocol_model(ks, &ops, dim_classes(dec)));
    proto.retain(|d| d.is_error());
    assert!(
        proto.is_empty(),
        "step schedule fails protocol verification:\n{}",
        pf_analyze::render(&proto)
    );
    // A phase with no interior sweep defers everything. One with an
    // interior sweep defers what its tapes' loads reach — except along
    // dimensions the exchange completes inside `begin` (leading undivided
    // ones: local wraps, no messages), whose ghosts are as fresh as owned
    // data when the interior runs. The soundness check sees the unmasked
    // widths; the mask only drops deferral where nothing defers.
    let k = pf_grid::first_deferred_dim(dec);
    let widths = |phase: Family| {
        let interior = ops.iter().find_map(|op| match op {
            StepOp::Sweep {
                phase: ph,
                variant,
                part: Part::Interior,
            } if *ph == phase => Some(*variant),
            _ => None,
        });
        let Some(variant) = interior else {
            return PhaseWidths::EVERYTHING;
        };
        let tapes = ks.tapes(phase, variant);
        let mut w = phase_widths(p, ks, &tapes);
        assert_frontier_sound(p, ks, &tapes, w);
        for d in 0..k {
            w.lo[d] = 0;
            w.hi[d] = 0;
        }
        w
    };
    StepPlan {
        phi: widths(Family::Phi),
        mu: widths(Family::Mu),
        ops,
    }
}

/// Apply Neumann physical boundaries to one field wherever this block
/// touches the domain edge (stale ghosts elsewhere get overwritten by the
/// exchange; the phased exchange then propagates corners correctly).
fn apply_neumann_edges(
    sim: &mut Simulation,
    comm: &Comm,
    dec: &Decomposition,
    field: Field,
    cfg: &DistConfig,
) {
    for (d, kind) in cfg.bc.iter().enumerate() {
        if *kind == BcKind::Neumann {
            let at_low = dec.neighbor(comm.rank(), d, -1).is_none();
            let at_high = dec.neighbor(comm.rank(), d, 1).is_none();
            if at_low || at_high {
                sim.store.get_mut(field).apply_neumann(d);
            }
        }
    }
}

/// Run `f` with the fields taken out of the store (split borrow for the
/// multi-field exchange), re-inserting them afterwards.
fn with_taken_fields<R>(
    sim: &mut Simulation,
    fields: &[Field],
    f: impl FnOnce(&mut [&mut pf_fields::FieldArray]) -> R,
) -> R {
    let mut arrs: Vec<pf_fields::FieldArray> =
        fields.iter().map(|field| sim.store.take(*field)).collect();
    let r = {
        let mut refs: Vec<&mut pf_fields::FieldArray> = arrs.iter_mut().collect();
        f(&mut refs)
    };
    for (field, arr) in fields.iter().zip(arrs) {
        sim.store.insert(*field, arr);
    }
    r
}

/// One distributed timestep of Algorithm 1: interpret the plan's op list
/// on this rank, over the launches `sim` keeps of its kernel set.
///
/// Every schedule the list can express leaves the same bits: the ghost
/// layers do not depend on how much ran between a begin and its finish,
/// region launches key every cell on its absolute index, and the plan
/// proved that no interior cell reads a ghost.
pub(crate) fn dist_step(
    sim: &mut Simulation,
    comm: &mut Comm,
    dec: &Decomposition,
    cfg: &DistConfig,
    plan: &StepPlan,
) {
    let rank = comm.rank();
    let _span = pf_trace::span_at("dist.step", rank);
    let base = sim.step_count * EPOCH_STRIDE;
    let mut in_flight: Vec<(&[Field], BatchHandle)> = Vec::new();
    for op in &plan.ops {
        match op {
            StepOp::BeginExchange { fields, epoch } => {
                for field in fields {
                    apply_neumann_edges(sim, comm, dec, *field, cfg);
                }
                // With `comm.batch` (the default) the fields' faces travel
                // as one packed message per neighbour at the op's epoch;
                // without, as batches of one at consecutive epochs. Same
                // per-field pack/unpack sequence, so the same ghosts.
                let per_message = if cfg.comm.batch { fields.len() } else { 1 };
                for (i, group) in fields.chunks(per_message).enumerate() {
                    let epoch = base + epoch + i as u64;
                    let handle = with_taken_fields(sim, group, |arrs| {
                        begin_exchange_batched(comm, dec, arrs, epoch)
                    });
                    in_flight.push((group, handle));
                }
            }
            StepOp::FinishExchange => {
                for (group, handle) in in_flight.drain(..) {
                    with_taken_fields(sim, group, |arrs| {
                        finish_exchange_batched(comm, dec, arrs, handle)
                    });
                }
            }
            StepOp::Sweep {
                phase,
                variant,
                part,
            } => {
                let w = match phase {
                    Family::Phi => plan.phi,
                    Family::Mu => plan.mu,
                };
                let cells = pf_trace::counter_at(
                    match part {
                        Part::Interior => "exec.interior_cells",
                        Part::Frontier => "exec.frontier_cells",
                    },
                    rank,
                );
                let t0 = std::time::Instant::now();
                sim.sweep(*phase, *variant, |ext| {
                    let (interior, shells) = split_frontier(ext, w.lo, w.hi);
                    let regions = match part {
                        Part::Interior => vec![interior],
                        Part::Frontier => shells,
                    };
                    cells.incr(regions.iter().map(|r| r.cells() as u64).sum());
                    regions
                });
                // Halo messages were in flight for as long as this took.
                if *part == Part::Interior {
                    pf_trace::counter_at("comm.overlap_window_ns", rank)
                        .incr(t0.elapsed().as_nanos() as u64);
                }
            }
            // Exchanges and sweeps open their spans where the work happens
            // (`grid.halo_*`, `exec.kernel.*`); these two have no callee
            // that would.
            StepOp::Project => {
                let _span = pf_trace::span_at("dist.project", rank);
                sim.project_simplex(sim.kernels.fields.phi_dst);
            }
            StepOp::Swap => {
                let _span = pf_trace::span_at("dist.swap", rank);
                let f = sim.kernels.fields;
                sim.store.swap(f.phi_src, f.phi_dst);
                sim.store.swap(f.mu_src, f.mu_dst);
            }
        }
    }
    sim.step_count += 1;
}

/// Run a distributed simulation for `steps` steps. The initial conditions
/// are given in *global* cell coordinates; `finish` extracts each rank's
/// result after the run. Returns the per-rank results in rank order.
///
/// Honours `cfg.checkpoint` (periodic/final sets, resume from the newest
/// complete set) and `cfg.faults` (message perturbation, planned rank
/// kill). A killed rank makes the whole world unwind with a dead-rank
/// panic; use [`run_distributed_resilient`] to recover from that
/// automatically.
pub fn run_distributed<R>(
    params: &ModelParams,
    kernels: &KernelSet,
    cfg: &DistConfig,
    steps: usize,
    init_phi: impl Fn(i64, i64, i64) -> Vec<f64> + Sync,
    init_mu: impl Fn(i64, i64, i64) -> Vec<f64> + Sync,
    finish: impl Fn(&Simulation) -> R + Sync,
) -> Vec<R>
where
    R: Send + 'static,
{
    let dec = cfg.decomposition();
    debug_assert_eq!(dec.nranks(), cfg.ranks);
    // The halo exchange fills dec.ghost_layers layers per sync; a kernel
    // whose loads reach further would read stale or uninitialized ghosts.
    let need = crate::kernels::required_halo_width(kernels);
    assert!(
        need <= dec.ghost_layers,
        "kernel set needs {need} ghost layer(s) but the decomposition exchanges only {}",
        dec.ghost_layers
    );
    // Built (and proved sound) once for the whole world; every rank
    // interprets the same op list each step.
    let step_plan = build_step_plan(params, kernels, cfg, &dec);
    let results: parking_lot::Mutex<Vec<(usize, R)>> =
        parking_lot::Mutex::new(Vec::with_capacity(cfg.ranks));
    let plan = cfg.faults.clone().map(Arc::new);
    // With faults active, one rank can finish while a peer still needs a
    // retransmission from it, so the run must end in a rendezvous before
    // endpoints are dropped.
    let needs_shutdown_sync = plan.is_some();
    // Resuming ranks agree on the restart step before the world starts, so
    // a set completed between two ranks' scans cannot split the cohort.
    let resume_step = cfg.checkpoint.as_ref().and_then(|ck| {
        if ck.resume {
            checkpoint::latest_complete_set(&ck.dir, cfg.ranks)
        } else {
            None
        }
    });

    run_ranks_with_faults(cfg.ranks, plan, |mut comm| {
        // Metrics recorded on this rank thread (kernel launches, halo
        // exchanges, checkpoint writes, …) are tagged with the rank so
        // snapshots can aggregate across the simulated world.
        let rank = comm.rank();
        pf_trace::with_rank(rank, || {
            let block = dec.block(comm.rank());
            let mut sim_cfg = SimConfig::new(block.shape);
            sim_cfg.phi_variant = cfg.phi_variant;
            sim_cfg.mu_variant = cfg.mu_variant;
            sim_cfg.bc = cfg.bc;
            sim_cfg.seed = cfg.seed;
            if let Some(m) = cfg.exec_mode {
                sim_cfg.mode = m;
            } else if cfg.tune_exec {
                // Warm tuning cache → measured-fastest engine for this
                // block shape; cold/off → keep the shape-based default.
                // Engines are bitwise identical, so this consult can never
                // change physics (see `TunedChoice`'s bitwise contract).
                if let Some(m) = crate::tune::tuned_exec_mode(
                    crate::tune::TuneCache::from_env().as_ref(),
                    kernels,
                    &pf_machine::skylake_8174(),
                    block.shape,
                ) {
                    sim_cfg.mode = m;
                }
            }
            let mut sim = Simulation::new(params.clone(), kernels.clone(), sim_cfg);
            sim.origin = block.origin;
            let (ox, oy, oz) = (block.origin[0], block.origin[1], block.origin[2]);
            sim.init_phi(|x, y, z| init_phi(x as i64 + ox, y as i64 + oy, z as i64 + oz));
            sim.init_mu(|x, y, z| init_mu(x as i64 + ox, y as i64 + oy, z as i64 + oz));
            let meta = cfg.rank_meta(&dec, comm.rank());
            // Diff base for incremental writes, and how many increments
            // the set it names already sits on.
            let mut ckpt_base: Option<checkpoint::IncrementalBase> = None;
            let mut incs_since_full = 0u64;
            if let (Some(ck), Some(step)) = (&cfg.checkpoint, resume_step) {
                let applied = checkpoint::load_chain(&mut sim, &meta, &ck.dir, step, comm.rank())
                    .unwrap_or_else(|e| {
                        panic!("restore from set {step} under {}: {e}", ck.dir.display())
                    });
                // The resumed set is on disk and complete, so it can serve
                // as a base; its chain depth carries over.
                ckpt_base = Some(checkpoint::IncrementalBase::capture(&sim));
                incs_since_full = applied as u64;
            }
            while sim.step_count < steps as u64 {
                if let Some(plan) = comm.fault_plan() {
                    if plan.should_kill(comm.rank(), sim.step_count) {
                        // Simulated death: unwind without checkpointing or
                        // entering the shutdown rendezvous. Peers notice the
                        // dropped endpoint and unwind too.
                        panic!(
                            "{DEAD_RANK_MARKER}: planned kill of rank {} at step {}",
                            comm.rank(),
                            sim.step_count
                        );
                    }
                }
                dist_step(&mut sim, &mut comm, &dec, cfg, &step_plan);
                if let Some(ck) = &cfg.checkpoint {
                    let done = sim.step_count == steps as u64;
                    let periodic = ck.every > 0 && sim.step_count.is_multiple_of(ck.every);
                    if periodic || (done && ck.final_checkpoint) {
                        let path = checkpoint::rank_file(&ck.dir, sim.step_count, comm.rank());
                        let _span = pf_trace::span_at("dist.checkpoint_write", comm.rank());
                        let t0 = std::time::Instant::now();
                        let base = ckpt_base
                            .as_ref()
                            .filter(|_| incs_since_full < ck.full_every.max(1));
                        incs_since_full = base.map_or(0, |_| incs_since_full + 1);
                        let written = checkpoint::save_over(&sim, &meta, base, &path)
                            .unwrap_or_else(|e| panic!("checkpoint to {}: {e}", path.display()));
                        ckpt_base = Some(written);
                        // The step loop stalls for the whole write — that stall
                        // is the drain the I/O pricing model cares about.
                        pf_trace::gauge_at("dist.checkpoint_drain_s", comm.rank())
                            .add(t0.elapsed().as_secs_f64());
                    }
                }
            }
            if needs_shutdown_sync {
                comm.shutdown_barrier();
            }
            let r = finish(&sim);
            results.lock().push((comm.rank(), r));
        })
    });

    let mut out = results.into_inner();
    out.sort_by_key(|(r, _)| *r);
    out.into_iter().map(|(_, r)| r).collect()
}

/// Restart attempts before a dead-rank failure is considered permanent.
const MAX_RESTARTS: usize = 3;

/// [`run_distributed`] wrapped in cohort-level recovery: when the world
/// unwinds because a rank died (the planned kill of a fault plan), the
/// cohort is restarted from the newest complete checkpoint set with the
/// kill disarmed. Determinism makes the recovery exact — the restarted
/// ranks re-produce bitwise the states the lost cohort would have had.
/// Panics that are not rank deaths propagate unchanged.
pub fn run_distributed_resilient<R>(
    params: &ModelParams,
    kernels: &KernelSet,
    cfg: &DistConfig,
    steps: usize,
    init_phi: impl Fn(i64, i64, i64) -> Vec<f64> + Sync,
    init_mu: impl Fn(i64, i64, i64) -> Vec<f64> + Sync,
    finish: impl Fn(&Simulation) -> R + Sync,
) -> Vec<R>
where
    R: Send + 'static,
{
    let mut attempt_cfg = cfg.clone();
    let mut restarts = 0usize;
    loop {
        let outcome = with_silenced_dead_rank_panics(|| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_distributed(
                    params,
                    kernels,
                    &attempt_cfg,
                    steps,
                    &init_phi,
                    &init_mu,
                    &finish,
                )
            }))
        });
        match outcome {
            Ok(results) => return results,
            Err(payload) => {
                if !Comm::is_dead_rank_panic(payload.as_ref()) || restarts >= MAX_RESTARTS {
                    std::panic::resume_unwind(payload);
                }
                restarts += 1;
                pf_trace::counter("dist.restarts").incr(1);
                // The planned death already happened; the replacement
                // cohort must not re-kill, and must pick up from the last
                // complete set (or the initial conditions if none exists).
                if let Some(f) = &mut attempt_cfg.faults {
                    *f = f.disarmed();
                }
                if let Some(ck) = &mut attempt_cfg.checkpoint {
                    ck.resume = true;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::generate_kernels;
    use pf_fields::FieldArray;
    use pf_ir::GenOptions;

    /// Four steps of `dcfg` from a tanh-profiled solid disc (centre and
    /// radius in global cells) in a melt at µ = 0.1; each rank's (φ, µ).
    fn run_disc(
        p: &ModelParams,
        ks: &KernelSet,
        dcfg: &DistConfig,
        (cx, cy, r): (f64, f64, f64),
    ) -> Vec<(FieldArray, FieldArray)> {
        let init_phi = |x: i64, y: i64, _z: i64| {
            let d = (((x as f64 - cx).powi(2) + (y as f64 - cy).powi(2)).sqrt() - r) / 3.0;
            let solid = 0.5 * (1.0 - d.tanh());
            vec![1.0 - solid, solid]
        };
        let init_mu = |_: i64, _: i64, _: i64| vec![0.1];
        run_distributed(p, ks, dcfg, 4, init_phi, init_mu, |sim| {
            (sim.phi().clone(), sim.mu().clone())
        })
    }

    fn assert_same_fields(
        a: &[(FieldArray, FieldArray)],
        b: &[(FieldArray, FieldArray)],
        what: &str,
    ) {
        assert_eq!(a.len(), b.len());
        for (a, b) in a.iter().zip(b) {
            assert_eq!(a.0.max_abs_diff(&b.0), 0.0, "{what} phi");
            assert_eq!(a.1.max_abs_diff(&b.1), 0.0, "{what} mu");
        }
    }

    /// Distributed (4 ranks) vs single-block: identical fields, bitwise.
    #[test]
    fn four_ranks_match_single_block_bitwise() {
        let p = crate::kernels::tests::mini_model();
        let ks = generate_kernels(&p, &GenOptions::default());
        let global = [16usize, 16, 1];

        let init_phi = |x: i64, y: i64, _z: i64| {
            let d = (((x as f64 - 8.0).powi(2) + (y as f64 - 8.0).powi(2)).sqrt() - 5.0) / 3.0;
            let solid = 0.5 * (1.0 - d.tanh());
            vec![1.0 - solid, solid]
        };
        let init_mu = |_x: i64, _y: i64, _z: i64| vec![0.1];
        let steps = 4;

        // Reference single-block run.
        let mut cfg1 = SimConfig::new(global);
        cfg1.bc = [BcKind::Periodic; 3];
        let mut reference = Simulation::new(p.clone(), ks.clone(), cfg1);
        reference.init_phi(|x, y, z| init_phi(x as i64, y as i64, z as i64));
        reference.init_mu(|x, y, z| init_mu(x as i64, y as i64, z as i64));
        reference.run_steps(steps);

        // Distributed run on 4 ranks.
        let dcfg = DistConfig::new(global, 4);
        let blocks = run_distributed(&p, &ks, &dcfg, steps, init_phi, init_mu, |sim| {
            (sim.origin, sim.phi().clone(), sim.mu().clone())
        });

        for (origin, phi, mu) in blocks {
            let shape = phi.shape();
            for y in 0..shape[1] as isize {
                for x in 0..shape[0] as isize {
                    for alpha in 0..2 {
                        let want = reference.phi().get(
                            alpha,
                            x + origin[0] as isize,
                            y + origin[1] as isize,
                            0,
                        );
                        let got = phi.get(alpha, x, y, 0);
                        assert_eq!(got, want, "phi mismatch at origin {origin:?} ({x},{y})");
                    }
                    let want =
                        reference
                            .mu()
                            .get(0, x + origin[0] as isize, y + origin[1] as isize, 0);
                    assert_eq!(mu.get(0, x, y, 0), want, "mu mismatch");
                }
            }
        }
    }

    /// The tentpole invariant of the overlapped schedule: turning
    /// `comm.overlap` on changes only *when* things run, never the bits.
    #[test]
    fn overlapped_schedule_matches_blocking_bitwise() {
        let p = crate::kernels::tests::mini_model();
        let ks = generate_kernels(&p, &GenOptions::default());
        let run = |overlap: bool, phi_v: Variant, mu_v: Variant| {
            let mut dcfg = DistConfig::new([16, 12, 1], 4);
            dcfg.bc = [BcKind::Periodic, BcKind::Neumann, BcKind::Periodic];
            dcfg.phi_variant = phi_v;
            dcfg.mu_variant = mu_v;
            dcfg.comm.overlap = overlap;
            run_disc(&p, &ks, &dcfg, (8.0, 6.0, 4.0))
        };
        for (phi_v, mu_v) in [
            (Variant::Full, Variant::Full),
            (Variant::Full, Variant::Split),
            (Variant::Split, Variant::Split),
        ] {
            let what = format!("{phi_v:?}/{mu_v:?}");
            assert_same_fields(&run(false, phi_v, mu_v), &run(true, phi_v, mu_v), &what);
        }
    }

    /// Same invariant when the process grid leaves x undivided ([1,2,1]
    /// here): begin completes the x wrap eagerly, the frontier carries no
    /// x shells, and the fields must still match blocking bitwise.
    #[test]
    fn overlap_with_undivided_x_matches_blocking_bitwise() {
        let p = crate::kernels::tests::mini_model();
        let ks = generate_kernels(&p, &GenOptions::default());
        let global = [8usize, 24, 1];
        assert_eq!(
            Decomposition::new(global, 2, [true; 3]).grid,
            [1, 2, 1],
            "workload no longer decomposes along y; pick another shape"
        );
        let run = |overlap: bool| {
            let mut dcfg = DistConfig::new(global, 2);
            dcfg.mu_variant = Variant::Split;
            dcfg.comm.overlap = overlap;
            run_disc(&p, &ks, &dcfg, (4.0, 12.0, 5.0))
        };
        assert_same_fields(&run(false), &run(true), "undivided x");
    }

    /// The protocol claim: the op list the driver runs — blocking and
    /// overlapped — is proven deadlock-free and stale-ghost-free
    /// symbolically, for every variant combination and every
    /// divided-pattern, i.e. for any rank count.
    #[test]
    fn overlapped_schedule_protocol_is_proven_sound_for_all_patterns() {
        let p = crate::kernels::tests::mini_model();
        let ks = generate_kernels(&p, &GenOptions::default());
        for overlap in [false, true] {
            for (phi_v, mu_v) in [
                (Variant::Full, Variant::Full),
                (Variant::Full, Variant::Split),
                (Variant::Split, Variant::Full),
                (Variant::Split, Variant::Split),
            ] {
                let diags = verify_step_protocol(&ks, phi_v, mu_v, overlap);
                assert!(
                    diags.is_empty(),
                    "{phi_v:?}/{mu_v:?} overlap={overlap}: {}",
                    pf_analyze::render(&diags)
                );
            }
        }
    }

    /// The model's view of the exchange must agree with pf-grid's actual
    /// structure: divided dims message, the expansion defers from
    /// `first_deferred_dim`, undivided decompositions produce no wire
    /// traffic.
    #[test]
    fn protocol_model_is_consistent_with_grid_exchange() {
        let p = crate::kernels::tests::mini_model();
        let ks = generate_kernels(&p, &GenOptions::default());

        // [1,2,2] grid: x wraps locally, so the deferred dim is 1 and the
        // first wire op of the expanded script must be a dim-1 send.
        let dec = Decomposition::new([4, 8, 8], 4, [true; 3]);
        assert_eq!(dec.grid, [1, 2, 2]);
        let classes = dim_classes(&dec);
        assert_eq!(
            classes.map(|c| c.divided),
            [false, true, true],
            "dim classes must mirror the process grid"
        );
        let ops = step_ops(&ks.fields, Variant::Full, Variant::Split, true);
        let m = step_protocol_model(&ks, &ops, classes);
        let script = pf_analyze::expand_script(&m);
        assert!(
            matches!(script[0], pf_analyze::CommOp::Send { dim, .. }
                if dim == pf_grid::first_deferred_dim(&dec)),
            "{script:?}"
        );

        // Single-rank: everything is a local wrap, nothing on the wire.
        let dec1 = Decomposition::new([8, 8, 8], 1, [true; 3]);
        let m1 = step_protocol_model(&ks, &ops, dim_classes(&dec1));
        assert!(pf_analyze::expand_script(&m1).is_empty());

        // µ kernels read both φ generations across block faces, so the µ
        // frontier must depend on phi_dst's exchange — the model has to
        // see that read, or stale-ghost-freedom would be vacuous.
        let mu_frontier = m
            .events
            .iter()
            .rev()
            .find_map(|e| match e {
                pf_analyze::ProtoEvent::Frontier { ghost_reads, .. } => Some(ghost_reads),
                _ => None,
            })
            .expect("model has a mu frontier");
        assert!(
            mu_frontier.contains(&ks.fields.phi_dst.name()),
            "{mu_frontier:?}"
        );
    }

    /// The protocol proof carries over to hierarchical decompositions:
    /// their flat process grid is the node-grid × socket-grid product, so
    /// `dim_classes` lands on one of the 2³ patterns the verifier already
    /// covers, and `check_protocol` re-proves the exchange sound for the
    /// hierarchical neighbour sets at every scale we target.
    #[test]
    fn hierarchical_decomposition_protocol_is_proven_sound() {
        let p = crate::kernels::tests::mini_model();
        let ks = generate_kernels(&p, &GenOptions::default());
        for (global, nodes, rpn) in [
            ([64usize, 64, 32], 16, 16), // 256 ranks, node × socket
            ([32, 32, 16], 8, 8),        // 64 ranks
            ([16, 16, 4], 4, 4),         // 16 ranks
            ([16, 12, 1], 2, 2),         // the bitwise-suite shape
        ] {
            let dec = Decomposition::hierarchical(global, nodes, rpn, [true; 3]);
            assert_eq!(dec.nranks(), nodes * rpn);
            let classes = dim_classes(&dec);
            assert!(
                pf_analyze::all_dim_patterns().contains(&classes),
                "hierarchical pattern {classes:?} outside the proven set"
            );
            for overlap in [false, true] {
                let ops = step_ops(&ks.fields, Variant::Full, Variant::Split, overlap);
                let diags = pf_analyze::check_protocol(&step_protocol_model(&ks, &ops, classes));
                assert!(
                    diags.is_empty(),
                    "{nodes}x{rpn} over {global:?} overlap={overlap}: {}",
                    pf_analyze::render(&diags)
                );
            }
        }
    }

    /// Hierarchical rank placement is mapping-only: the same world run
    /// with `ranks_per_node` set must reproduce the flat run bit for bit,
    /// blocking and overlapped alike.
    #[test]
    fn hierarchical_mapping_matches_flat_bitwise() {
        let p = crate::kernels::tests::mini_model();
        let ks = generate_kernels(&p, &GenOptions::default());
        let global = [16usize, 12, 1];
        // Same flat process grid either way, so blocks line up rank-for-rank.
        assert_eq!(
            Decomposition::hierarchical(global, 2, 2, [true; 3]).grid,
            Decomposition::new(global, 4, [true; 3]).grid,
        );
        let run = |rpn: Option<usize>, overlap: bool| {
            let mut dcfg = DistConfig::new(global, 4);
            dcfg.ranks_per_node = rpn;
            dcfg.comm.overlap = overlap;
            run_disc(&p, &ks, &dcfg, (8.0, 6.0, 4.0))
        };
        for overlap in [false, true] {
            let what = format!("overlap={overlap}");
            assert_same_fields(&run(None, overlap), &run(Some(2), overlap), &what);
        }
    }

    /// Batching is a transport-level refinement: coalescing the per-field
    /// face messages into one packed message per (neighbour, epoch) must
    /// leave every ghost byte identical — including when the reliability
    /// layer is being hammered by dropped, duplicated, and delayed
    /// messages.
    #[test]
    fn batched_exchange_matches_unbatched_bitwise_under_message_faults() {
        let p = crate::kernels::tests::mini_model();
        let ks = generate_kernels(&p, &GenOptions::default());
        let run = |batch: bool, overlap: bool, faults: Option<FaultPlan>| {
            let mut dcfg = DistConfig::new([16, 12, 1], 4);
            dcfg.comm.batch = batch;
            dcfg.comm.overlap = overlap;
            dcfg.faults = faults;
            run_disc(&p, &ks, &dcfg, (8.0, 6.0, 4.0))
        };
        let plan = || {
            Some(
                FaultPlan::new(0xBA7C4)
                    .drop_prob(0.2)
                    .dup_prob(0.2)
                    .delay_prob(0.3),
            )
        };
        for overlap in [false, true] {
            let clean = run(false, overlap, None);
            for (label, res) in [
                ("batched", run(true, overlap, None)),
                ("batched+faults", run(true, overlap, plan())),
                ("unbatched+faults", run(false, overlap, plan())),
            ] {
                assert_same_fields(&clean, &res, &format!("{label} overlap={overlap}"));
            }
        }
    }

    /// Seeded mutations of the executed op list, blocking and overlapped:
    /// each distortion is caught by exactly the expected diagnostic family.
    #[test]
    fn mutated_schedules_are_rejected() {
        let p = crate::kernels::tests::mini_model();
        let ks = generate_kernels(&p, &GenOptions::default());
        let dims = dim_classes(&Decomposition::new([8, 8, 8], 8, [true; 3]));
        let codes = |ops: &[StepOp]| -> Vec<&'static str> {
            pf_analyze::check_protocol(&step_protocol_model(&ks, ops, dims))
                .iter()
                .map(|d| d.kind.code())
                .collect()
        };
        let position = |ops: &[StepOp], nth: usize, pred: fn(&StepOp) -> bool| {
            let hits: Vec<usize> = (0..ops.len()).filter(|&i| pred(&ops[i])).collect();
            hits[nth]
        };
        let is_begin = |op: &StepOp| matches!(op, StepOp::BeginExchange { .. });
        let is_finish = |op: &StepOp| matches!(op, StepOp::FinishExchange);
        for overlap in [false, true] {
            let sound = step_ops(&ks.fields, Variant::Full, Variant::Full, overlap);
            assert_eq!(codes(&sound), Vec::<&str>::new(), "overlap={overlap}");

            // The φ_dst exchange reuses the step's first epoch offset:
            // epochs regress in schedule order.
            let mut ops = sound.clone();
            let dst_begin = position(&ops, 1, is_begin);
            let StepOp::BeginExchange { epoch, .. } = &mut ops[dst_begin] else {
                unreachable!()
            };
            *epoch = 0;
            assert!(
                codes(&ops).contains(&"protocol.epoch-regression"),
                "overlap={overlap}: {:?}",
                codes(&ops)
            );

            // Dropped finish: the φ_dst exchange is begun but never
            // completed, and the µ frontier reads mid-flight ghosts.
            let mut ops = sound.clone();
            ops.remove(position(&ops, 1, is_finish));
            let c = codes(&ops);
            assert!(c.contains(&"protocol.dropped-finish"), "{c:?}");
            assert!(c.contains(&"protocol.frontier-before-finish"), "{c:?}");

            // φ frontier hoisted before its finish: stale reads.
            let mut ops = sound.clone();
            let finish = position(&ops, 0, is_finish);
            ops.swap(finish, finish + 1);
            assert!(
                codes(&ops).contains(&"protocol.frontier-before-finish"),
                "overlap={overlap}: {:?}",
                codes(&ops)
            );
        }
    }

    /// `check_frontier` is the spatial half of the overlap proof and must
    /// run in every build profile: widths one cell too narrow on one side
    /// are refused when the plan is built (CI runs this test `--release`).
    #[test]
    #[should_panic(expected = "overlap plan unsound for kernel 'mu_full'")]
    fn narrowed_frontier_width_is_rejected() {
        let p = crate::kernels::tests::mini_model();
        let ks = generate_kernels(&p, &GenOptions::default());
        let tapes = ks.tapes(Family::Mu, Variant::Full);
        let mut w = phase_widths(&p, &ks, &tapes);
        assert_frontier_sound(&p, &ks, &tapes, w);
        w.lo[0] -= 1;
        assert_frontier_sound(&p, &ks, &tapes, w);
    }

    /// The blocking op list costs what the hand-written blocking step
    /// cost: one full-range launch per tape of the chosen variants, none of
    /// the others, and per rank and step 2 exchanges × 2 x-neighbours
    /// messages (φ_src and µ_src share theirs).
    #[test]
    fn blocking_op_list_launches_each_tape_once_and_keeps_the_message_count() {
        if !pf_trace::enabled() {
            return;
        }
        let p = crate::kernels::tests::mini_model();
        let mut ks = generate_kernels(&p, &GenOptions::default());
        // pf-trace's registry is process-wide and other tests launch the
        // same kernels concurrently: count under names only this test uses.
        for tape in crate::kernels::all_tapes_mut(&mut ks) {
            tape.name = format!("oplist_{}", tape.name);
        }
        let dcfg = DistConfig::new([16, 12, 1], 2);
        assert!(!dcfg.comm.overlap && dcfg.comm.batch);
        let dec = dcfg.decomposition();
        assert_eq!(dec.grid, [2, 1, 1]);
        let plan = build_step_plan(&p, &ks, &dcfg, &dec);
        let steps = 3u64;
        let sent = parking_lot::Mutex::new(Vec::new());
        pf_grid::run_ranks(2, |mut comm| {
            let block = dec.block(comm.rank());
            let mut sim_cfg = SimConfig::new(block.shape);
            sim_cfg.bc = dcfg.bc;
            let mut sim = Simulation::new(p.clone(), ks.clone(), sim_cfg);
            sim.origin = block.origin;
            for _ in 0..steps {
                dist_step(&mut sim, &mut comm, &dec, &dcfg, &plan);
            }
            let n = comm
                .stats
                .messages_sent
                .load(std::sync::atomic::Ordering::Relaxed);
            sent.lock().push(n);
        });
        assert_eq!(*sent.lock(), [4 * steps; 2]);
        let report = pf_trace::snapshot();
        let launches = |tape: &Tape| {
            let name = format!("exec.launches.{}", tape.name);
            report.counters.get(&name).map_or(0, |c| c.total)
        };
        for tape in ks
            .tapes(Family::Phi, dcfg.phi_variant)
            .into_iter()
            .chain(ks.tapes(Family::Mu, dcfg.mu_variant))
        {
            assert_eq!(launches(tape), 2 * steps, "{}", tape.name);
        }
        assert_eq!(launches(&ks.mu_full), 0);
        assert_eq!(launches(&ks.phi_split.update), 0);
    }

    #[test]
    fn mixed_boundaries_run_stably() {
        let p = crate::kernels::tests::mini_model();
        let ks = generate_kernels(&p, &GenOptions::default());
        let mut dcfg = DistConfig::new([8, 8, 1], 2);
        dcfg.bc = [BcKind::Neumann, BcKind::Periodic, BcKind::Periodic];
        let sums = run_distributed(
            &p,
            &ks,
            &dcfg,
            3,
            |x, _, _| {
                let solid = if x < 4 { 1.0 } else { 0.0 };
                vec![1.0 - solid, solid]
            },
            |_, _, _| vec![0.05],
            |sim| sim.phi().interior_sum(1),
        );
        for s in sums {
            assert!(s.is_finite() && s >= 0.0);
        }
    }
}
