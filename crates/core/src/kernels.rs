//! Kernel generation: model expressions → executable tapes.
//!
//! Produces the four compute kernels of Algorithm 1 — φ-full, φ-split,
//! µ-full, µ-split — by driving the discretization (full inline vs.
//! staggered-flux extraction) and the IR pipeline. "Each kernel can
//! optionally be split into two parts to prevent re-computation of
//! staggered values" (§4.2).

use crate::model::{build_model, ModelExprs, ModelFields};
use crate::params::ModelParams;
use crate::sim::Variant;
use crate::tune::Family;
use pf_analyze::{analyze, check_split_disjoint, AnalyzeOptions, FieldAlloc, SuiteReport};
use pf_ir::{generate, GenOptions, Tape};
use pf_stencil::{discretize_full, split_fluxes, Discretization, StencilKernel};
use pf_symbolic::Field;

/// The split variant of one kernel: face (flux) tapes plus the update tape.
#[derive(Clone, Debug)]
pub struct SplitTapes {
    /// One face kernel per direction (iter_extent = 1 along its direction).
    pub flux_tapes: Vec<Tape>,
    pub update: Tape,
    /// Symbolic handle of the staggered temporary (bind an array of shape
    /// `block + 1` per dimension, no ghosts).
    pub stag_field: Field,
    pub slots: usize,
}

/// All generated kernels for one model instance.
#[derive(Clone, Debug)]
pub struct KernelSet {
    pub fields: ModelFields,
    pub phi_full: Tape,
    pub mu_full: Tape,
    pub phi_split: SplitTapes,
    pub mu_split: SplitTapes,
}

impl KernelSet {
    /// The tapes of one family's variant in execution order: the face
    /// (flux) kernels before the update.
    pub fn tapes(&self, family: Family, variant: Variant) -> Vec<&Tape> {
        let (full, split) = match family {
            Family::Phi => (&self.phi_full, &self.phi_split),
            Family::Mu => (&self.mu_full, &self.mu_split),
        };
        match variant {
            Variant::Full => vec![full],
            Variant::Split => split.flux_tapes.iter().chain([&split.update]).collect(),
        }
    }

    /// Every tape of the set: both full kernels, then both split chains.
    pub fn all_tapes(&self) -> Vec<&Tape> {
        let mut tapes = Vec::new();
        for variant in [Variant::Full, Variant::Split] {
            for family in [Family::Phi, Family::Mu] {
                tapes.extend(self.tapes(family, variant));
            }
        }
        tapes
    }
}

fn full_kernel(
    name: &str,
    disc: &Discretization,
    updates: &[(pf_symbolic::Access, pf_symbolic::Expr)],
    opts: &GenOptions,
) -> Tape {
    let assignments = discretize_full(disc, updates);
    let k = StencilKernel::new(name, assignments);
    generate(&k, opts)
}

fn split_kernel(
    name: &str,
    disc: &Discretization,
    updates: &[(pf_symbolic::Access, pf_symbolic::Expr)],
    opts: &GenOptions,
) -> SplitTapes {
    let r = split_fluxes(disc, &format!("{name}_stag"), updates);
    let flux_tapes = r.flux_kernels.iter().map(|k| generate(k, opts)).collect();
    let mut uk = StencilKernel::new(&format!("{name}_update"), r.updates);
    uk.iter_extent = [0, 0, 0];
    SplitTapes {
        flux_tapes,
        update: generate(&uk, opts),
        stag_field: r.stag_field,
        slots: r.slots.len().max(1),
    }
}

/// Generate all four kernels for a model.
pub fn generate_kernels(p: &ModelParams, opts: &GenOptions) -> KernelSet {
    let m: ModelExprs = build_model(p);
    generate_kernels_from(p, &m, opts)
}

/// Generate kernels from pre-built model expressions (lets callers modify
/// the PDE layer first — the paper's "user can extend the description on
/// each level").
pub fn generate_kernels_from(p: &ModelParams, m: &ModelExprs, opts: &GenOptions) -> KernelSet {
    // From here on, every tape the pipeline produces passes through the
    // pf-analyze SSA/value verifier (subject to PF_VERIFY).
    pf_analyze::install_pipeline_verifier();
    let disc = Discretization::new(p.dim, [p.dx; 3]);
    let mut ks = KernelSet {
        fields: m.fields,
        phi_full: full_kernel("phi_full", &disc, &m.phi_updates, opts),
        mu_full: full_kernel("mu_full", &disc, &m.mu_updates, opts),
        phi_split: split_kernel("phi", &disc, &m.phi_updates, opts),
        mu_split: split_kernel("mu", &disc, &m.mu_updates, opts),
    };
    stamp_range_contracts(&mut ks);
    if pf_ir::verify_enabled() {
        let suite = verify_kernel_set(p, &ks);
        if let Some(errs) = suite.errors_rendered() {
            panic!(
                "kernel set for model '{}' failed verification:\n{errs}",
                p.name
            );
        }
        suite.record_trace();
    }
    ks
}

/// The value-range contract a kernel may assume when *loading* `f`, used
/// to seed pf-analyze's interval dataflow (pass 6).
///
/// * φ fields are simplex coordinates: each component lies in [0, 1].
///   Valid for loads of both generations — µ kernels read `phi_dst` only
///   after the simplex projection re-normalizes it, and φ kernels only
///   *store* `phi_dst` (stores carry no contract: the pre-projection raw
///   update may briefly leave the simplex).
/// * µ fields are chemical potentials; physically bounded but with no
///   hard invariant, so the contract is a deliberately loose ±10³ — wide
///   enough that no correct model violates it, finite enough that the
///   interval pass can prove `exp`/product terms stay finite.
/// * Staggered flux temporaries carry no contract.
pub fn field_contract(fields: &ModelFields, f: &Field) -> Option<(f64, f64)> {
    if *f == fields.phi_src || *f == fields.phi_dst {
        Some((0.0, 1.0))
    } else if *f == fields.mu_src || *f == fields.mu_dst {
        Some((-1e3, 1e3))
    } else {
        None
    }
}

pub(crate) fn all_tapes_mut(ks: &mut KernelSet) -> Vec<&mut Tape> {
    let mut tapes: Vec<&mut Tape> = vec![&mut ks.phi_full, &mut ks.mu_full];
    for split in [&mut ks.phi_split, &mut ks.mu_split] {
        tapes.extend(split.flux_tapes.iter_mut());
        tapes.push(&mut split.update);
    }
    tapes
}

/// Stamp [`field_contract`] ranges onto every tape's `field_ranges`
/// metadata (parallel to its field table). Analysis-only: the ranges are
/// excluded from `Tape::structural_hash`, so stamping cannot invalidate
/// native-code or tuning caches.
fn stamp_range_contracts(ks: &mut KernelSet) {
    let fields = ks.fields;
    for tape in all_tapes_mut(ks) {
        tape.field_ranges = tape
            .fields
            .iter()
            .map(|f| field_contract(&fields, f))
            .collect();
    }
}

/// Allocation table for `tape`, mirroring what `Simulation::new` (and the
/// bench harness) actually allocate: cell-centred fields carry
/// [`pf_grid::GHOST_LAYERS`] ghost layers; staggered flux temporaries have
/// no ghosts but one pad cell along each swept dimension.
pub(crate) fn alloc_table(p: &ModelParams, ks: &KernelSet, tape: &Tape) -> Vec<FieldAlloc> {
    let stag = [ks.phi_split.stag_field, ks.mu_split.stag_field];
    tape.fields
        .iter()
        .map(|f| {
            if stag.contains(f) {
                let mut pad = [0usize; 3];
                for d in pad.iter_mut().take(p.dim) {
                    *d = 1;
                }
                FieldAlloc { ghost: 0, pad }
            } else {
                FieldAlloc::ghosted(pf_grid::GHOST_LAYERS)
            }
        })
        .collect()
}

/// Ghost-layer width the kernel set's loads of exchanged (cell-centred)
/// fields require — what a halo exchange must provide. Staggered
/// temporaries are block-local and excluded.
pub fn required_halo_width(ks: &KernelSet) -> usize {
    let stag = [ks.phi_split.stag_field, ks.mu_split.stag_field];
    let mut width = 0;
    for tape in ks.all_tapes() {
        let fp = pf_analyze::Footprint::of(tape);
        for (slot, f) in tape.fields.iter().enumerate() {
            if stag.contains(f) {
                continue;
            }
            width = width.max(fp.required_ghost(slot, [0; 3]));
        }
    }
    width
}

/// Run the full pf-analyze suite (SSA, halo fit against the real
/// allocation shapes, intra-sweep hazards, value lints, contract-seeded
/// interval dataflow, split-group store disjointness) over every kernel
/// of `ks`.
pub fn verify_kernel_set(p: &ModelParams, ks: &KernelSet) -> SuiteReport {
    let mut suite = SuiteReport::default();
    for tape in ks.all_tapes() {
        let opts = AnalyzeOptions {
            allocs: Some(alloc_table(p, ks, tape)),
            hazards: true,
            seeded_rng: true,
            intervals: true,
        };
        suite.push(analyze(tape, &opts));
    }
    for family in [Family::Phi, Family::Mu] {
        let group = ks.tapes(family, Variant::Split);
        suite.group_diagnostics.extend(check_split_disjoint(&group));
    }
    suite
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::params::{p1, ModelParams, TempModel};

    /// A minimal 2-phase / 2-component 2D model so unit tests stay fast;
    /// the full P1/P2 generations are exercised by integration tests.
    pub fn mini_model() -> ModelParams {
        ModelParams {
            name: "mini".into(),
            phases: 2,
            components: 2,
            dim: 2,
            dx: 1.0,
            dt: 0.01,
            eps: 3.0,
            gamma: vec![vec![0.0, 0.4], vec![0.4, 0.0]],
            gamma_third: 0.0,
            tau: vec![vec![0.0, 1.0], vec![1.0, 0.0]],
            diffusivity: vec![1.0, 0.1],
            a_coeff: vec![vec![-0.5], vec![-0.5]],
            // Solid (phase 1) has the lower grand potential at µ > 0, so a
            // positive chemical potential drives solidification; at µ = 0
            // the bulk potentials are equal (pure curvature flow).
            b_coeff: vec![vec![(0.0, 0.05)], vec![(-0.3, 0.05)]],
            c_coeff: vec![(0.01, 0.0), (0.01, 0.0)],
            anisotropy: None,
            orientation: vec![0.0, 0.0],
            temperature: TempModel {
                t0: 1.0,
                gradient: 0.0,
                velocity: 0.0,
            },
            fluctuation_amplitude: 0.0,
            liquid_phase: 0,
            antitrapping: true,
            eta: 1e-9,
        }
    }

    #[test]
    fn mini_kernels_generate_and_have_stores() {
        let ks = generate_kernels(&mini_model(), &GenOptions::default());
        assert!(ks.phi_full.stores().count() == 2);
        assert!(ks.mu_full.stores().count() == 1);
        assert!(!ks.phi_split.flux_tapes.is_empty());
        assert!(ks.mu_split.slots >= 2, "one flux slot per direction");
    }

    #[test]
    fn split_flux_tapes_iterate_extended_ranges() {
        let ks = generate_kernels(&mini_model(), &GenOptions::default());
        for (d, t) in ks.mu_split.flux_tapes.iter().enumerate() {
            let mut expect = [0usize; 3];
            expect[d] = 1;
            assert_eq!(t.iter_extent, expect);
        }
    }

    #[test]
    fn mu_kernel_reads_both_phi_generations() {
        let ks = generate_kernels(&mini_model(), &GenOptions::default());
        let fields: Vec<_> = ks.mu_full.fields.clone();
        assert!(fields.contains(&ks.fields.phi_src));
        assert!(fields.contains(&ks.fields.phi_dst));
        assert!(fields.contains(&ks.fields.mu_src));
    }

    #[test]
    fn split_update_is_smaller_than_full() {
        // The whole point of splitting: the update pass re-reads cached
        // staggered values instead of recomputing them.
        let ks = generate_kernels(&mini_model(), &GenOptions::default());
        assert!(
            ks.mu_split.update.instrs.len() < ks.mu_full.instrs.len(),
            "{} vs {}",
            ks.mu_split.update.instrs.len(),
            ks.mu_full.instrs.len()
        );
    }

    #[test]
    #[ignore = "heavy symbolic generation; run with --ignored or the integration suite"]
    fn p1_kernels_generate() {
        let ks = generate_kernels(&p1(), &GenOptions::default());
        assert_eq!(ks.phi_full.stores().count(), 4);
        assert_eq!(ks.mu_full.stores().count(), 2);
    }
}
