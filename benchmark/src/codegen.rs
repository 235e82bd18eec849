//! Set-up's code generation, as one call (what users pay) and replayed
//! from the pipeline's public pieces (where the time goes), plus the gate
//! that checks the generated stores against the unoptimised expressions.

use crate::init::SplitMix;
use crate::spans::SpanLog;
use crate::workloads::Workload;
use pf_core::{build_model, field_contract, KernelSet, ModelExprs, ModelParams, SplitTapes};
use pf_ir::{GenOptions, Tape, TapeEnv, TapeOp, VerifyStage};
use pf_stencil::{discretize_full, split_fluxes, Assignment, Discretization, Lhs, StencilKernel};
use pf_symbolic::{Access, EvalCtx, Field, Symbol};
use std::collections::HashMap;

/// Kernel families one generation produces (phi/mu x full/split): the
/// operations set-up contributes to `fail_share`.
pub const FAMILIES: u64 = 4;

/// Seconds per layer of one replayed generation.
#[derive(Clone, Copy, Debug, Default)]
pub struct Layers {
    pub build_model_s: f64,
    pub discretize_s: f64,
    pub optimize_s: f64,
    pub lower_s: f64,
    pub verify_s: f64,
    pub diagnostics: usize,
}

pub struct Generated {
    pub model: ModelExprs,
    pub kernels: KernelSet,
    pub seconds: f64,
    /// Only a replayed generation knows its layers.
    pub layers: Option<Layers>,
}

/// `pf_core::generate_kernels`, keeping the model expressions it builds
/// (the store gate needs the fields the tapes were generated over).
pub fn generate(p: &ModelParams, log: &mut SpanLog) -> Generated {
    let open = log.enter("core.generate_kernels");
    let model = build_model(p);
    let kernels = pf_core::generate_kernels_from(p, &model, &GenOptions::default());
    Generated {
        model,
        kernels,
        seconds: log.exit(open),
        layers: None,
    }
}

/// The rest of `pf_ir::generate` after `optimize_stencil`.
fn lower(optimized: &StencilKernel, opts: &GenOptions) -> Tape {
    let mut tape = pf_ir::lower_kernel(optimized);
    if opts.licm {
        pf_ir::apply_licm(&mut tape);
    }
    tape.dead_code_eliminate();
    tape.approx = opts.approx;
    tape
}

/// `generate_kernels` replayed call by call, a span around each. Panics
/// where `generate_kernels` panics: on a tape that fails verification.
pub fn generate_replayed(p: &ModelParams, log: &mut SpanLog) -> Generated {
    let opts = GenOptions::default();
    let mut layers = Layers::default();
    let whole = log.enter("core.generate_kernels(replayed)");
    pf_analyze::install_pipeline_verifier();

    let (model, s) = log.time("core.build_model", || build_model(p));
    layers.build_model_s = s;

    let disc = Discretization::new(p.dim, [p.dx; 3]);
    let equations = [("phi", &model.phi_updates), ("mu", &model.mu_updates)];
    let ((full, split), s) = log.time("stencil.discretize", || {
        (
            equations.map(|(name, updates)| {
                StencilKernel::new(&format!("{name}_full"), discretize_full(&disc, updates))
            }),
            equations.map(|(name, updates)| split_fluxes(&disc, &format!("{name}_stag"), updates)),
        )
    });
    layers.discretize_s = s;

    let mut tape_of = |k: &StencilKernel, log: &mut SpanLog| {
        let (optimized, s) = log.time("symbolic.optimize", || pf_ir::optimize_stencil(k, &opts));
        layers.optimize_s += s;
        let (tape, s) = log.time("ir.lower", || lower(&optimized, &opts));
        layers.lower_s += s;
        let ((), s) = log.time("analyze.verify", || {
            pf_ir::run_verifier(&tape, VerifyStage::PostLowering)
        });
        layers.verify_s += s;
        tape
    };
    let [phi_full, mu_full] = full.each_ref().map(|k| tape_of(k, log));
    let [phi_split, mu_split] = [0, 1].map(|i| {
        let r = &split[i];
        let flux_tapes = r.flux_kernels.iter().map(|k| tape_of(k, log)).collect();
        let update = StencilKernel::new(&format!("{}_update", equations[i].0), r.updates.clone());
        SplitTapes {
            flux_tapes,
            update: tape_of(&update, log),
            stag_field: r.stag_field,
            slots: r.slots.len().max(1),
        }
    });
    let mut kernels = KernelSet {
        fields: model.fields,
        phi_full,
        mu_full,
        phi_split,
        mu_split,
    };
    for tape in all_tapes_mut(&mut kernels) {
        tape.field_ranges = tape
            .fields
            .iter()
            .map(|f| field_contract(&model.fields, f))
            .collect();
    }

    let (suite, s) = log.time("analyze.verify", || pf_core::verify_kernel_set(p, &kernels));
    layers.verify_s += s;
    layers.diagnostics = suite.diagnostic_count();
    if let Some(errs) = suite.errors_rendered() {
        panic!(
            "replayed kernel set for model '{}' failed verification:\n{errs}",
            p.name
        );
    }
    Generated {
        model,
        kernels,
        seconds: log.exit(whole),
        layers: Some(layers),
    }
}

fn all_tapes_mut(ks: &mut KernelSet) -> Vec<&mut Tape> {
    let mut tapes: Vec<&mut Tape> = vec![&mut ks.phi_full, &mut ks.mu_full];
    for split in [&mut ks.phi_split, &mut ks.mu_split] {
        tapes.extend(split.flux_tapes.iter_mut());
        tapes.push(&mut split.update);
    }
    tapes
}

fn all_tapes(ks: &KernelSet) -> Vec<&Tape> {
    let mut tapes: Vec<&Tape> = vec![&ks.phi_full, &ks.mu_full];
    for split in [&ks.phi_split, &ks.mu_split] {
        tapes.extend(split.flux_tapes.iter());
        tapes.push(&split.update);
    }
    tapes
}

/// Is the replay the pipeline? Both sets must come from one `build_model`
/// (fields are interned per declaration). The full tapes then hash alike;
/// the split tapes read a staggered field each `split_fluxes` call declares
/// anew, so they are compared by everything but that handle.
pub fn same_programs(replayed: &KernelSet, reference: &KernelSet) -> Result<(), String> {
    for (a, b) in [
        (&replayed.phi_full, &reference.phi_full),
        (&replayed.mu_full, &reference.mu_full),
    ] {
        if a.structural_hash() != b.structural_hash() {
            return Err(format!("replayed '{}' hashes differently", a.name));
        }
    }
    let (ra, rb) = (all_tapes(replayed), all_tapes(reference));
    if ra.len() != rb.len() {
        return Err("replay produced a different number of tapes".into());
    }
    for (a, b) in ra.iter().zip(&rb) {
        let same = a.name == b.name
            && a.instrs == b.instrs
            && a.levels == b.levels
            && a.loop_order == b.loop_order
            && a.iter_extent == b.iter_extent
            && a.params == b.params
            && a.approx == b.approx
            && a.fields.len() == b.fields.len();
        if !same {
            return Err(format!(
                "replayed '{}' differs from generate_kernels'",
                a.name
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Gate (a): generated stores vs the unoptimised discretised expressions
// ---------------------------------------------------------------------------

/// One random cell neighbourhood: every leaf a kernel can read, as a pure
/// function of (seed, field, component, offset).
struct Neighbourhood {
    seed: u64,
    fields: pf_core::ModelFields,
    dx: f64,
}

fn mix(mut h: u64, v: u64) -> u64 {
    h ^= v
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(h << 6)
        .wrapping_add(h >> 2);
    SplitMix::new(h).next_u64()
}

impl Neighbourhood {
    fn unit(&self, key: [u64; 4]) -> f64 {
        let h = key.iter().fold(self.seed, |h, &v| mix(h, v));
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    fn value(&self, field: Field, comp: usize, off: [i32; 3]) -> f64 {
        let packed = ((off[0] as i64 as u64) << 42)
            ^ (((off[1] as i64 as u64) & 0x1F_FFFF) << 21)
            ^ ((off[2] as i64 as u64) & 0x1F_FFFF);
        let u = self.unit([1, field.id() as u64, comp as u64, packed]);
        if field == self.fields.mu_src || field == self.fields.mu_dst {
            -0.2 + 0.4 * u
        } else {
            // Phase fractions: inside (0, 1), away from the obstacle.
            0.05 + 0.55 * u
        }
    }

    /// Index of the cell `shift` away along `d`.
    fn cell_idx_at(&self, d: usize, shift: i32) -> f64 {
        (10 + shift) as f64 + (20.0 * self.unit([2, d as u64, 0, 0])).floor()
    }

    fn coord_at(&self, d: usize, shift: i32) -> f64 {
        self.cell_idx_at(d, shift) * self.dx
    }
}

impl EvalCtx for Neighbourhood {
    fn sym(&self, s: Symbol) -> f64 {
        0.5 + self.unit([5, s.id() as u64, 0, 0])
    }
    fn access(&self, a: Access) -> f64 {
        self.value(a.field, a.comp as usize, a.off)
    }
    fn coord(&self, d: usize) -> f64 {
        self.coord_at(d, 0)
    }
    fn time(&self) -> f64 {
        self.unit([3, 0, 0, 0])
    }
    fn cell_idx(&self, d: usize) -> f64 {
        self.cell_idx_at(d, 0)
    }
    fn rand(&self, lane: usize) -> f64 {
        2.0 * self.unit([4, lane as u64, 0, 0]) - 1.0
    }
}

/// Values of the staggered temporary by (slot, face offset).
type Faces = HashMap<(u16, [i32; 3]), f64>;

/// A tape's view of the neighbourhood from the cell `shift` away; loads of
/// the staggered temporary read what the face tapes stored there.
struct TapeView<'a> {
    hood: &'a Neighbourhood,
    tape: &'a Tape,
    shift: [i32; 3],
    staggered: Option<(Field, &'a Faces)>,
}

impl TapeEnv for TapeView<'_> {
    fn param(&self, slot: usize) -> f64 {
        EvalCtx::sym(self.hood, self.tape.params[slot])
    }
    fn load(&self, field_slot: usize, comp: u16, off: [i16; 3]) -> f64 {
        let field = self.tape.fields[field_slot];
        let at = [0, 1, 2].map(|d| self.shift[d] + off[d] as i32);
        match self.staggered {
            Some((stag, faces)) if stag == field => *faces
                .get(&(comp, at))
                .expect("face value computed before the update tape runs"),
            _ => self.hood.value(field, comp as usize, at),
        }
    }
    fn coord(&self, d: usize) -> f64 {
        self.hood.coord_at(d, self.shift[d])
    }
    fn time(&self) -> f64 {
        EvalCtx::time(self.hood)
    }
    fn cell_idx(&self, d: usize) -> f64 {
        self.hood.cell_idx_at(d, self.shift[d])
    }
    fn rand(&self, lane: usize) -> f64 {
        EvalCtx::rand(self.hood, lane)
    }
}

/// What the executed tapes of one equation store for the cell, by
/// destination component.
fn stored_values(hood: &Neighbourhood, tapes: &[&Tape], stag: Field) -> HashMap<u16, f64> {
    let (update, faces_tapes) = tapes.split_last().expect("an equation has a tape");
    // Face values the update tape will load, each from the face tape that
    // stores its slot, evaluated at the face's own cell.
    let mut faces = Faces::new();
    for op in &update.instrs {
        let TapeOp::Load { field, comp, off } = *op else {
            continue;
        };
        if update.fields[field as usize] != stag {
            continue;
        }
        let at = off.map(i32::from);
        if faces.contains_key(&(comp, at)) {
            continue;
        }
        for face_tape in faces_tapes {
            let view = TapeView {
                hood,
                tape: face_tape,
                shift: at,
                staggered: None,
            };
            for ((_, c, _), v) in pf_ir::interp_cell(face_tape, &view).stores {
                faces.insert((c, at), v);
            }
        }
    }
    let view = TapeView {
        hood,
        tape: update,
        shift: [0; 3],
        staggered: Some((stag, &faces)),
    };
    pf_ir::interp_cell(update, &view)
        .stores
        .into_iter()
        .map(|((_, comp, _), v)| (comp, v))
        .collect()
}

pub struct StoreCheck {
    pub checked: usize,
    pub max_rel_err: f64,
}

/// Every store of every executed tape, at `samples` seeded random
/// neighbourhoods, against `Expr::eval` of the unoptimised
/// `discretize_full` assignments: a reference that shares nothing with
/// expand, CSE, lowering or LICM.
pub fn check_stores(
    w: &Workload,
    p: &ModelParams,
    gen: &Generated,
    seed: u64,
    samples: usize,
) -> Result<StoreCheck, String> {
    const REL_TOL: f64 = 1e-9;
    let disc = Discretization::new(p.dim, [p.dx; 3]);
    let (phi_tapes, mu_tapes) = w.executed_tapes(&gen.kernels);
    let equations = [
        (
            gen.model.phi_updates.as_slice(),
            phi_tapes,
            gen.kernels.phi_split.stag_field,
        ),
        (
            gen.model.mu_updates.as_slice(),
            mu_tapes,
            gen.kernels.mu_split.stag_field,
        ),
    ];
    let mut out = StoreCheck {
        checked: 0,
        max_rel_err: 0.0,
    };
    for (updates, tapes, stag) in equations {
        let reference: Vec<Assignment> = discretize_full(&disc, updates);
        for sample in 0..samples {
            let hood = Neighbourhood {
                seed: mix(seed, sample as u64),
                fields: gen.model.fields,
                dx: p.dx,
            };
            let got = stored_values(&hood, &tapes, stag);
            if got.len() != reference.len() {
                return Err(format!(
                    "'{}' stores {} components, the model updates {}",
                    tapes.last().map_or("?", |t| t.name.as_str()),
                    got.len(),
                    reference.len()
                ));
            }
            for a in &reference {
                let Lhs::Field(dst) = a.lhs else { continue };
                let want = a.rhs.eval(&hood);
                let have = got.get(&dst.comp).copied().unwrap_or(f64::NAN);
                let rel = (have - want).abs() / want.abs().max(1.0);
                out.checked += 1;
                if rel.is_nan() || rel > REL_TOL {
                    return Err(format!(
                        "store {dst:?}: generated {have:e}, unoptimised expression {want:e} \
                         (sample {sample})"
                    ));
                }
                out.max_rel_err = out.max_rel_err.max(rel);
            }
        }
    }
    Ok(out)
}
